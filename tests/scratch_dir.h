// A scratch directory private to one test process:
// testing::TempDir()/<name>-<pid>, emptied and created on construction and
// removed with everything under it on destruction. The pid keeps two ctest
// runs at once (say, two build presets) from sharing a file, and the
// removal keeps runs from piling directories up in the temp root.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace jarvis::testing_util {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name + "-" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace jarvis::testing_util
