// Tests for the user-controllable-privacy core: attacks, tunable defenses,
// and the privacy-utility frontier evaluator.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
#include "niom/evaluate.h"
#include "core/local_service.h"
#include "core/privacy.h"

namespace pmiot::core {
namespace {

synth::HomeTrace test_home(std::uint64_t seed = 21, int days = 7) {
  Rng rng(seed);
  return synth::simulate_home(synth::home_b(), CivilDate{2017, 6, 5}, days,
                              rng);
}

TEST(OccupancyAttack, LeaksOnRawData) {
  const auto home = test_home();
  OccupancyAttack attack;
  const double leakage = attack.leakage(home.aggregate, home);
  EXPECT_GT(leakage, 0.3);
  EXPECT_LE(leakage, 1.0);
}

TEST(ApplianceAttack, LeaksOnRawData) {
  const auto home = test_home();
  ApplianceAttack attack;
  const double leakage = attack.leakage(home.aggregate, home);
  EXPECT_GT(leakage, 0.1);
  EXPECT_LE(leakage, 1.0);
}

TEST(ApplianceAttack, ZeroWhenNoTrackedAppliancesPresent) {
  const auto home = test_home();
  ApplianceAttack attack({"nonexistent-device"});
  EXPECT_DOUBLE_EQ(attack.leakage(home.aggregate, home), 0.0);
}

TEST(Defenses, IntensityZeroPreservesSignalShape) {
  const auto home = test_home();
  Rng rng(1);
  SmoothingDefense smoothing;
  const auto outcome = smoothing.apply(home, 0.0, rng);
  EXPECT_EQ(outcome.released, home.aggregate);

  NoiseDefense noise;
  const auto noise_outcome = noise.apply(home, 0.0, rng);
  EXPECT_EQ(noise_outcome.released, home.aggregate);

  BatteryLevelDefense battery;
  const auto battery_outcome = battery.apply(home, 0.0, rng);
  for (std::size_t t = 0; t < home.aggregate.size(); ++t) {
    EXPECT_DOUBLE_EQ(battery_outcome.released[t], home.aggregate[t]);
  }
}

TEST(Defenses, IntensityOutOfRangeRejected) {
  const auto home = test_home(22, 2);
  Rng rng(2);
  SmoothingDefense defense;
  EXPECT_THROW(defense.apply(home, -0.1, rng), InvalidArgument);
  EXPECT_THROW(defense.apply(home, 1.1, rng), InvalidArgument);
}

TEST(ChprDefense, ReplacesWaterHeaterAtZero) {
  const auto home = test_home();
  Rng rng(3);
  ChprDefense defense;
  const auto outcome = defense.apply(home, 0.0, rng);
  EXPECT_EQ(outcome.released.size(), home.aggregate.size());
  EXPECT_DOUBLE_EQ(outcome.extra_energy_kwh, 0.0);
}

TEST(ChprDefense, HigherIntensityLeaksLessOccupancy) {
  const auto home = test_home();
  Rng rng(4);
  ChprDefense defense;
  OccupancyAttack attack;
  const auto off = defense.apply(home, 0.0, rng);
  const auto full = defense.apply(home, 1.0, rng);
  EXPECT_LT(attack.leakage(full.released, home),
            attack.leakage(off.released, home) * 0.75);
}

TEST(BatteryDefense, FullIntensityKillsBothAttacks) {
  const auto home = test_home();
  Rng rng(5);
  BatteryLevelDefense defense;
  const auto outcome = defense.apply(home, 1.0, rng);
  OccupancyAttack occupancy;
  ApplianceAttack appliances;
  EXPECT_LT(occupancy.leakage(outcome.released, home), 0.15);
  EXPECT_LT(appliances.leakage(outcome.released, home), 0.15);
  EXPECT_GT(outcome.extra_energy_kwh, 0.0);
}

TEST(Evaluator, StandardSuiteHasTwoAttacks) {
  const auto evaluator = PrivacyEvaluator::standard();
  EXPECT_EQ(evaluator.attacks().size(), 2u);
}

TEST(Evaluator, RejectsEmptyAttackSuite) {
  EXPECT_THROW(PrivacyEvaluator({}), InvalidArgument);
}

TEST(Evaluator, SweepProducesFrontier) {
  const auto home = test_home();
  Rng rng(6);
  const auto evaluator = PrivacyEvaluator::standard();
  SmoothingDefense defense;
  const std::vector<double> intensities{0.0, 0.5, 1.0};
  const auto frontier = evaluator.sweep(defense, home, intensities, rng);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_DOUBLE_EQ(frontier[0].intensity, 0.0);
  EXPECT_DOUBLE_EQ(frontier[0].billing_error, 0.0);
  EXPECT_DOUBLE_EQ(frontier[0].analytics_error, 0.0);
  for (const auto& point : frontier) {
    EXPECT_EQ(point.leakage.size(), 2u);
    for (const auto& [name, value] : point.leakage) {
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 1.0);
    }
  }
}

TEST(Evaluator, SweepParallelMatchesSweepBitwiseAcrossPoolWidths) {
  // The campaign runner and the parallel benches lean on this contract:
  // point RNGs are forked from `rng` serially up front, so the pooled
  // sweep reproduces the width-1 one bit for bit at any PMIOT_THREADS.
  const auto home = test_home(21, 3);
  const auto evaluator = PrivacyEvaluator::standard();
  NoiseDefense defense;
  const std::vector<double> intensities{0.0, 0.25, 0.5, 0.75, 1.0};
  const auto sweep_at = [&](std::size_t width) {
    Rng rng(77);
    if (width == 0) return evaluator.sweep(defense, home, intensities, rng);
    par::ThreadPool pool(width);
    par::ScopedPoolOverride scoped(pool);
    return evaluator.sweep(defense, home, intensities, rng);
  };
  const auto serial = sweep_at(1);

  // Width 0 stands for the default shared pool (PMIOT_THREADS).
  for (const std::size_t width : {std::size_t{4}, std::size_t{0}}) {
    const auto pooled = sweep_at(width);
    ASSERT_EQ(pooled.size(), serial.size()) << "pool width " << width;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i].intensity, serial[i].intensity);
      EXPECT_EQ(pooled[i].billing_error, serial[i].billing_error);
      EXPECT_EQ(pooled[i].analytics_error, serial[i].analytics_error);
      EXPECT_EQ(pooled[i].extra_energy_kwh, serial[i].extra_energy_kwh);
      EXPECT_EQ(pooled[i].leakage, serial[i].leakage);
    }
  }
}

TEST(Evaluator, SmoothingKillsNilmButNotOccupancy) {
  // The paper's §III-B observation: obfuscating NILM is easier than
  // obfuscating occupancy (which requires actually shifting load).
  const auto home = test_home();
  Rng rng(7);
  const auto evaluator = PrivacyEvaluator::standard();
  SmoothingDefense defense;
  const std::vector<double> intensities{0.0, 1.0};
  const auto frontier = evaluator.sweep(defense, home, intensities, rng);
  const double nilm_before = frontier[0].leakage.at("appliances(NILM)");
  const double nilm_after = frontier[1].leakage.at("appliances(NILM)");
  EXPECT_LT(nilm_after, nilm_before * 0.3);
  const double occ_after = frontier[1].leakage.at("occupancy(NIOM)");
  EXPECT_GT(occ_after, 0.2);  // occupancy still leaks through the mean
}

TEST(Evaluator, BatteryFrontierTradesAnalyticsForPrivacy) {
  const auto home = test_home();
  Rng rng(8);
  const auto evaluator = PrivacyEvaluator::standard();
  BatteryLevelDefense defense;
  const std::vector<double> intensities{0.0, 1.0};
  const auto frontier = evaluator.sweep(defense, home, intensities, rng);
  EXPECT_LT(frontier[1].leakage.at("occupancy(NIOM)"),
            frontier[0].leakage.at("occupancy(NIOM)"));
  EXPECT_GT(frontier[1].analytics_error, frontier[0].analytics_error);
}

// --- local IoT services (SIII-D) ---------------------------------------------

std::vector<synth::HomeTrace> panel(int homes, int days) {
  const auto configs = synth::home_population(homes);
  std::vector<synth::HomeTrace> out;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Rng rng(9000 + i);
    out.push_back(
        synth::simulate_home(configs[i], CivilDate{2017, 5, 1}, days, rng));
  }
  return out;
}

TEST(LocalService, GenericModelTransfersToUnseenHome) {
  const auto train_panel = panel(4, 10);
  const auto model = GenericOccupancyModel::train(train_panel);
  LocalOccupancyService service(model);

  Rng rng(77);
  const auto home =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 10, rng);
  const auto predicted = service.detect(home.aggregate, false);
  const auto report = niom::score_predictions(
      "local", predicted, home.aggregate, home.occupancy,
      niom::waking_hours());
  EXPECT_GT(report.accuracy, 0.6);
  EXPECT_GT(report.mcc, 0.2);
}

TEST(LocalService, ArtifactIsTiny) {
  const auto model = GenericOccupancyModel::train(panel(2, 7));
  EXPECT_LT(model.artifact_bytes(), 256u);
}

TEST(LocalService, OutboundSharesOnlyTheBill) {
  const auto model = GenericOccupancyModel::train(panel(2, 7));
  LocalOccupancyService service(model);
  Rng rng(78);
  const auto home =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 7, rng);
  const auto summary = service.outbound(home.aggregate);
  EXPECT_EQ(summary.samples_shared, 0u);
  EXPECT_NEAR(summary.monthly_kwh, home.aggregate.energy_kwh(), 1e-9);
}

TEST(LocalService, NormalizedObservationsAreScaleInvariant) {
  Rng rng(79);
  const auto home =
      synth::simulate_home(synth::home_a(), CivilDate{2017, 6, 5}, 7, rng);
  auto doubled = home.aggregate;
  doubled.scale(2.0);
  const auto a = normalized_observations(home.aggregate, 15);
  const auto b = normalized_observations(doubled, 15);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(LocalService, TrainingValidatesPanel) {
  EXPECT_THROW(GenericOccupancyModel::train({}), InvalidArgument);
}

}  // namespace
}  // namespace pmiot::core
