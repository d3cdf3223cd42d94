#include "sim/prices.h"

#include <algorithm>
#include <cmath>

namespace jarvis::sim {

DamPriceModel::DamPriceModel(PriceConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {}

bool DamPriceModel::IsPeak(util::SimTime t) const {
  const int hour = t.hour_of_day();
  return hour >= config_.peak_start_hour && hour < config_.peak_end_hour;
}

bool DamPriceModel::IsOffPeak(util::SimTime t) const {
  const int hour = t.hour_of_day();
  if (config_.off_peak_start_hour <= config_.off_peak_end_hour) {
    return hour >= config_.off_peak_start_hour &&
           hour < config_.off_peak_end_hour;
  }
  return hour >= config_.off_peak_start_hour ||
         hour < config_.off_peak_end_hour;
}

double DamPriceModel::BasePrice(int hour) const {
  const util::SimTime probe = util::SimTime::FromHms(0, hour, 0);
  if (IsPeak(probe)) return config_.peak_usd_per_kwh;
  if (IsOffPeak(probe)) return config_.off_peak_usd_per_kwh;
  return config_.shoulder_usd_per_kwh;
}

double DamPriceModel::PriceAt(util::SimTime t) const {
  util::Rng rng(seed_ ^
                (static_cast<std::uint64_t>(t.day()) *
                 std::uint64_t{0xd1b54a32d192ed03}) ^
                (static_cast<std::uint64_t>(t.hour_of_day()) *
                 std::uint64_t{0x2545f4914f6cdd1d}));
  const double factor =
      std::max(0.2, 1.0 + rng.NextGaussian(0.0, config_.volatility));
  return BasePrice(t.hour_of_day()) * factor;
}

}  // namespace jarvis::sim
