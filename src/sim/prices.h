// Day-ahead-market electricity price model standing in for the ERCOT DAM
// feed [20] behind the energy-cost functionality F_1. Prices are hourly,
// published a day ahead, with the canonical structure: cheap overnight
// trough, morning shoulder, late-afternoon peak, plus day-level volatility.
#pragma once


#include "util/rng.h"
#include "util/timeofday.h"

namespace jarvis::sim {

struct PriceConfig {
  double off_peak_usd_per_kwh = 0.06;
  double shoulder_usd_per_kwh = 0.12;
  double peak_usd_per_kwh = 0.28;
  double volatility = 0.15;  // multiplicative day-level noise (stddev)
  int peak_start_hour = 15;
  int peak_end_hour = 20;    // exclusive
  int off_peak_start_hour = 22;
  int off_peak_end_hour = 6;  // exclusive, wraps midnight
};

class DamPriceModel {
 public:
  DamPriceModel(PriceConfig config, std::uint64_t seed);

  // Price in $/kWh for the hour containing t (pure function of time).
  double PriceAt(util::SimTime t) const;

  bool IsPeak(util::SimTime t) const;
  bool IsOffPeak(util::SimTime t) const;

  const PriceConfig& config() const { return config_; }

 private:
  double BasePrice(int hour) const;

  PriceConfig config_;
  std::uint64_t seed_;
};

}  // namespace jarvis::sim
