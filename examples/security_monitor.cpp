// Security monitor: the intrusion-detection deployment of Jarvis.
//
// A smart home runs normally for a day while an attacker injects a
// handful of crafted violations (sensor suppression, midnight unlocks, a
// trojan app). The monitor audits the event stream minute by minute and
// reports exactly the malicious transitions, while the resident's slightly
// sloppy-but-benign behavior (a fridge door left open at night) passes as
// a filtered benign anomaly.
//
// Run: ./build/examples/security_monitor
#include <cstdio>
#include <vector>

#include "core/jarvis.h"
#include "core/online_monitor.h"
#include "events/event.h"
#include "sim/testbed.h"

int main() {
  using namespace jarvis;

  std::printf("=== Jarvis security monitor ===\n\n");

  sim::TestbedConfig testbed_config;
  testbed_config.benign_anomaly_samples = 6000;
  sim::Testbed testbed(testbed_config);
  const fsm::EnvironmentFsm& home = testbed.home_a();

  core::Jarvis jarvis(home, core::JarvisConfig{});
  jarvis.LearnPolicies(testbed.HomeALearningEpisodes(),
                       testbed.BuildTrainingSet());
  std::printf("Learning phase complete: %zu safe behavior patterns.\n\n",
              jarvis.learner().table().admitted_key_count());

  // A normal day...
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 1001);
  const auto generator = testbed.home_a_generator();
  sim::DayTrace day = resident.SimulateDay(generator.Generate(77),
                                           resident.OvernightState(), 21.0);

  // ...with three injected attacks and one injected benign anomaly.
  const auto violations = testbed.BuildViolations();
  fsm::Episode under_attack = day.episode;
  std::vector<const sim::Violation*> injected;
  for (std::size_t pick : {0u, 120u, 205u}) {  // one per distinct type group
    under_attack = sim::AttackGenerator::InjectIntoEpisode(
        home, under_attack, violations[pick]);
    injected.push_back(&violations[pick]);
  }
  sim::AnomalyGenerator anomalies(home, 55);
  fsm::StateVector home_context(home.device_count(), 0);
  home_context[0] = *home.device(0).FindState("unlocked");
  const auto benign = anomalies.GenerateOfKind(
      sim::AnomalyKind::kFridgeDoorLeftOpen, home_context);

  std::printf("Injected attacks:\n");
  for (const auto* violation : injected) {
    std::printf("  [%s] %s at %02d:%02d\n",
                sim::ViolationTypeName(violation->type).c_str(),
                violation->description.c_str(), violation->minute / 60,
                violation->minute % 60);
  }
  std::printf("Injected benign anomaly: %s at %02d:%02d\n\n",
              benign.description.c_str(), benign.minute / 60,
              benign.minute % 60);

  // Audit the full day.
  const auto audit = jarvis.Audit(under_attack);
  std::printf("Audit of %zu device transitions:\n", audit.transitions_checked);
  for (const auto& flag : audit.flags) {
    const auto& step =
        under_attack.steps()[static_cast<std::size_t>(flag.step_index)];
    const auto& device = home.device(flag.mini.device);
    std::printf("  %02d:%02d  %-12s %-14s -> %s\n", flag.step_index / 60,
                flag.step_index % 60, device.label().c_str(),
                device.action_name(flag.mini.action).c_str(),
                spl::VerdictName(flag.verdict).c_str());
    (void)step;
  }
  std::printf("\nSummary: %zu violations flagged, %zu benign anomalies "
              "filtered, %zu transitions passed as safe.\n",
              audit.violations, audit.benign_anomalies, audit.safe);

  // The benign anomaly, checked directly through the classifier.
  const auto verdict =
      jarvis.learner().Classify(home_context, benign.action, benign.minute);
  std::printf("Direct check of the fridge-door anomaly: %s (a malfunction, "
              "not an attack).\n",
              spl::VerdictName(verdict).c_str());

  // --- Streaming mode ------------------------------------------------—---
  // The same detection, online: every event goes through
  // OnlineMonitor::Consume the moment it arrives, and each command that is
  // not safe is reported at once.
  std::printf("\nStreaming mode (OnlineMonitor::Consume per event):\n");
  core::OnlineMonitor monitor(home, jarvis.learner(),
                              day.episode.initial_state());
  std::vector<events::Event> stream = day.events;
  // Inject one live attack event.
  events::Event attack_event;
  attack_event.date = util::SimTime::FromHms(day.scenario.day, 23, 50);
  attack_event.device_label = "temp_sensor";
  attack_event.attribute_value = "off";
  attack_event.command = "power_off";
  stream.push_back(attack_event);
  for (const auto& event : stream) {
    const auto verdict = monitor.Consume(event);
    if (!verdict || *verdict == spl::Verdict::kSafe) continue;
    std::printf("  ALERT %s  %-12s %-14s [%s]\n",
                event.date.ToString().c_str(), event.device_label.c_str(),
                event.command.c_str(), spl::VerdictName(*verdict).c_str());
  }
  std::printf("Streamed %zu events: %zu commands classified, %zu violations, "
              "%zu benign anomalies.\n",
              monitor.events_consumed(), monitor.commands_classified(),
              monitor.violations(), monitor.benign_anomalies());

  return audit.violations >= injected.size() ? 0 : 1;
}
