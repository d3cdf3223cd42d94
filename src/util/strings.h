// Small string helpers shared across modules.
#pragma once

#include <string>

namespace jarvis::util {

std::string ToLower(std::string text);
bool StartsWith(const std::string& text, const std::string& prefix);

// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace jarvis::util
