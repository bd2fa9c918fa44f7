/**
 * @file
 * Unit tests for the terminal-voltage model and the cycle/calendar
 * aging model, plus their integration into BatteryUnit.
 */

#include <gtest/gtest.h>

#include "battery/aging_model.h"
#include "battery/battery_unit.h"
#include "battery/kibam.h"
#include "battery/voltage_model.h"

namespace pad::battery {
namespace {

KibamParams
pack()
{
    return KibamParams{3600.0 * 12.0, 0.625, 4.5e-4}; // 12 Wh
}

TEST(VoltageModel, FullPackSitsAtFullCellVoltage)
{
    Kibam b(pack());
    VoltageModel vm;
    EXPECT_NEAR(vm.openCircuitVoltage(b), 2.10 * 6, 1e-9);
    EXPECT_NEAR(vm.cellVoltage(b, 0.0), 2.10, 1e-9);
}

TEST(VoltageModel, VoltageFallsWithAvailableHead)
{
    Kibam b(pack());
    VoltageModel vm;
    const double vFull = vm.openCircuitVoltage(b);
    b.step(500.0, 30.0);
    const double vUsed = vm.openCircuitVoltage(b);
    EXPECT_LT(vUsed, vFull);
    b.setSoc(0.0);
    EXPECT_NEAR(vm.openCircuitVoltage(b), 1.70 * 6, 1e-9);
}

TEST(VoltageModel, OhmicDropScalesWithLoad)
{
    Kibam b(pack());
    VoltageModelConfig cfg;
    cfg.internalResistanceOhm = 0.05;
    cfg.nominalVoltage = 12.0;
    VoltageModel vm(cfg);
    const double voc = vm.terminalVoltage(b, 0.0);
    const double v100 = vm.terminalVoltage(b, 100.0);
    const double v200 = vm.terminalVoltage(b, 200.0);
    EXPECT_NEAR(voc - v100, (100.0 / 12.0) * 0.05, 1e-9);
    EXPECT_NEAR(voc - v200, 2.0 * (voc - v100), 1e-9);
}

TEST(VoltageModel, CutoffPowerShrinksAsBatteryDrains)
{
    Kibam b(pack());
    VoltageModel vm;
    const double fresh = vm.powerAtCellCutoff(b, 1.75);
    b.step(800.0, 20.0);
    const double drained = vm.powerAtCellCutoff(b, 1.75);
    EXPECT_LT(drained, fresh);
    EXPECT_GE(drained, 0.0);
}

TEST(VoltageModel, CutoffConsistentWithTerminalVoltage)
{
    Kibam b(pack());
    b.step(300.0, 15.0);
    VoltageModel vm;
    const double p = vm.powerAtCellCutoff(b, 1.80);
    if (p > 0.0) {
        EXPECT_NEAR(vm.cellVoltage(b, p), 1.80, 1e-9);
    }
}

TEST(AgingModel, ReferenceRateConsumesOneCycleLifePerThroughput)
{
    AgingModelConfig cfg;
    cfg.cycleLife = 100.0;
    cfg.referenceRateC = 1.0;
    AgingModel aging(cfg, 3600.0); // 1 Wh
    // Discharge exactly one full capacity at the reference rate.
    aging.onDischarge(1.0, 3600.0); // 1 W for 1 h = 3600 J = 1 C rate
    EXPECT_NEAR(aging.cycleWear(), 1.0 / 100.0, 1e-12);
}

TEST(AgingModel, HighRateDischargeWearsFaster)
{
    AgingModelConfig cfg;
    cfg.referenceRateC = 0.2;
    cfg.stressExponent = 1.0;
    AgingModel slow(cfg, 3600.0);
    AgingModel fast(cfg, 3600.0);
    slow.onDischarge(0.2, 100.0); // at reference rate
    fast.onDischarge(2.0, 10.0);  // same energy, 10x the rate
    EXPECT_NEAR(fast.cycleWear(), 10.0 * slow.cycleWear(), 1e-12);
}

TEST(AgingModel, BelowReferenceRateNoExtraStress)
{
    AgingModelConfig cfg;
    cfg.referenceRateC = 0.2;
    AgingModel gentle(cfg, 3600.0);
    AgingModel reference(cfg, 3600.0);
    gentle.onDischarge(0.05, 400.0);
    reference.onDischarge(0.2, 100.0);
    EXPECT_NEAR(gentle.cycleWear(), reference.cycleWear(), 1e-12);
}

TEST(AgingModel, CalendarAgingAccrues)
{
    AgingModelConfig cfg;
    cfg.calendarLifeHours = 100.0;
    AgingModel aging(cfg, 3600.0);
    aging.onElapsed(50.0 * 3600.0);
    EXPECT_NEAR(aging.calendarWear(), 0.5, 1e-12);
    EXPECT_FALSE(aging.endOfLife());
    aging.onElapsed(60.0 * 3600.0);
    EXPECT_TRUE(aging.endOfLife());
}

TEST(AgingModel, CapacityFadesToEightyPercentAtEol)
{
    AgingModelConfig cfg;
    cfg.calendarLifeHours = 10.0;
    AgingModel aging(cfg, 3600.0);
    EXPECT_DOUBLE_EQ(aging.capacityFactor(), 1.0);
    aging.onElapsed(5.0 * 3600.0);
    EXPECT_NEAR(aging.capacityFactor(), 0.9, 1e-12);
    aging.onElapsed(100.0 * 3600.0);
    EXPECT_DOUBLE_EQ(aging.capacityFactor(), 0.8);
}

TEST(BatteryUnit, TracksWearAndVoltage)
{
    BatteryUnitConfig cfg;
    cfg.capacityWh = 120.6;
    cfg.maxDischargePower = 6252.0;
    BatteryUnit deb("t.deb", cfg);
    EXPECT_DOUBLE_EQ(deb.wear(), 0.0);
    const double vFull = deb.cellVoltage(0.0);
    deb.discharge(3000.0, 30.0);
    EXPECT_GT(deb.wear(), 0.0);
    EXPECT_LT(deb.cellVoltage(0.0), vFull);
    // Terminal voltage under load is lower than open circuit.
    EXPECT_LT(deb.terminalVoltage(3000.0), deb.terminalVoltage(0.0));
}

TEST(BatteryUnit, HarderDrainingWearsMore)
{
    BatteryUnitConfig cfg;
    cfg.capacityWh = 10.0;
    cfg.maxDischargePower = 10000.0;
    BatteryUnit gentle("g.deb", cfg);
    BatteryUnit harsh("h.deb", cfg);
    // Same energy, 20x the rate.
    gentle.discharge(100.0, 200.0);
    harsh.discharge(2000.0, 10.0);
    EXPECT_GT(harsh.wear(), gentle.wear());
}

/** Property sweep: voltage is monotone in state of charge. */
class VoltageMonotonicity : public ::testing::TestWithParam<double>
{};

TEST_P(VoltageMonotonicity, HigherSocNeverLowersVoltage)
{
    const double load = GetParam();
    VoltageModel vm;
    double prev = -1.0;
    for (double soc = 0.0; soc <= 1.0; soc += 0.1) {
        Kibam b(pack());
        b.setSoc(soc);
        const double v = vm.terminalVoltage(b, load);
        EXPECT_GE(v, prev - 1e-12);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Loads, VoltageMonotonicity,
                         ::testing::Values(0.0, 50.0, 200.0, 1000.0));

} // namespace
} // namespace pad::battery
