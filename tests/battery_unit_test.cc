/**
 * @file
 * Unit tests for the DEB battery unit: LVD behaviour, discharge rate
 * limiting, autonomy estimation, and lifetime bookkeeping; plus the
 * super-capacitor model and the charge policies.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "battery/battery_unit.h"
#include "battery/charge_policy.h"
#include "battery/supercap.h"

namespace pad::battery {
namespace {

BatteryUnitConfig
rackDeb()
{
    BatteryUnitConfig cfg;
    cfg.capacityWh = 120.6; // delivers ~50 s at 5210 W full rack load
    cfg.maxDischargePower = 6252.0;
    cfg.maxChargePower = 1300.0;
    cfg.lvdDisconnectSoc = 0.125;
    cfg.lvdReconnectSoc = 0.25;
    return cfg;
}

TEST(BatteryUnit, DeliversRequestedPowerWhenHealthy)
{
    BatteryUnit deb("t.deb", rackDeb());
    const Joules got = deb.discharge(1000.0, 10.0);
    EXPECT_NEAR(got, 10000.0, 1e-6);
    EXPECT_LT(deb.soc(), 1.0);
}

TEST(BatteryUnit, RespectsMaxDischargePower)
{
    BatteryUnit deb("t.deb", rackDeb());
    const Joules got = deb.discharge(50000.0, 1.0);
    EXPECT_LE(got, rackDeb().maxDischargePower * 1.0 + 1e-6);
}

TEST(BatteryUnit, SustainsRoughlyFiftySecondsAtFullRackLoad)
{
    BatteryUnit deb("t.deb", rackDeb());
    // The paper sizes the cabinet for 50 s at full rack load; with
    // the LVD floor at 12.5% SOC usable time is a bit lower.
    const double autonomy = deb.estimateAutonomySeconds(5210.0, 0.5);
    EXPECT_GT(autonomy, 40.0);
    EXPECT_LT(autonomy, 60.0);
}

TEST(BatteryUnit, LvdTripsAtThresholdAndBlocksDischarge)
{
    BatteryUnit deb("t.deb", rackDeb());
    deb.setSoc(0.13);
    deb.discharge(3000.0, 10.0);
    EXPECT_TRUE(deb.disconnected());
    EXPECT_EQ(deb.lvdTrips(), 1);
    // Further discharge is refused.
    EXPECT_DOUBLE_EQ(deb.discharge(3000.0, 10.0), 0.0);
    // SOC never fell materially below the disconnect floor.
    EXPECT_GE(deb.soc(), rackDeb().lvdDisconnectSoc - 0.01);
}

TEST(BatteryUnit, LvdReconnectsAfterRecharge)
{
    BatteryUnit deb("t.deb", rackDeb());
    deb.setSoc(0.126);
    deb.discharge(2000.0, 60.0);
    ASSERT_TRUE(deb.disconnected());
    // Charge it back above the reconnect threshold.
    for (int i = 0; i < 600 && deb.disconnected(); ++i)
        deb.charge(1300.0, 60.0);
    EXPECT_FALSE(deb.disconnected());
    EXPECT_GE(deb.soc(), rackDeb().lvdReconnectSoc - 0.02);
    EXPECT_GT(deb.discharge(1000.0, 1.0), 0.0);
}

TEST(BatteryUnit, AvailablePowerZeroWhenDisconnected)
{
    BatteryUnit deb("t.deb", rackDeb());
    deb.setSoc(0.10);
    EXPECT_TRUE(deb.disconnected());
    EXPECT_DOUBLE_EQ(deb.availablePower(1.0), 0.0);
}

TEST(BatteryUnit, LifetimeCountersAccumulate)
{
    BatteryUnit deb("t.deb", rackDeb());
    deb.discharge(2000.0, 30.0);
    deb.charge(1000.0, 30.0);
    EXPECT_NEAR(deb.lifetimeDischarged(), 60000.0, 1e-6);
    EXPECT_NEAR(deb.lifetimeCharged(), 30000.0, 1e-6);
    EXPECT_NEAR(deb.equivalentFullCycles(),
                60000.0 / deb.capacity(), 1e-9);
}

TEST(UnitKernels, SoaArraySlotMatchesBatteryUnitBitForBit)
{
    // The SoA engine keeps each unit as one slot of parallel arrays
    // and shares one coefficient memo across units; BatteryUnit keeps
    // its own. Both run the same kernels, so the same request
    // sequence -- discharge into the LVD, requests while tripped,
    // rest, recharge past reconnect, coarse overdraws that cross
    // depletion mid-step -- must leave bit-equal state.
    const BatteryUnitConfig cfg = rackDeb();
    const KibamParams params{wattHoursToJoules(cfg.capacityWh),
                             cfg.kibamC, cfg.kibamK};
    constexpr std::size_t kUnits = 3, kSlot = 1;
    std::vector<double> y1(kUnits), y2(kUnits), cycle(kUnits, 0.0),
        calendar(kUnits, 0.0), discharged(kUnits, 0.0),
        charged(kUnits, 0.0);
    std::vector<std::uint8_t> tripped(kUnits, 0);
    std::vector<int> trips(kUnits, 0);
    for (std::size_t u = 0; u < kUnits; ++u)
        kibamSetSoc(y1[u], y2[u], params, 1.0);
    KibamCoeffCache cache;
    const UnitState slot{y1[kSlot],         y2[kSlot],
                         tripped[kSlot],    trips[kSlot],
                         cycle[kSlot],      calendar[kSlot],
                         discharged[kSlot], charged[kSlot]};

    BatteryUnit deb("t.deb", cfg);
    const auto expectSame = [&](int step) {
        ASSERT_EQ(deb.stored(), y1[kSlot] + y2[kSlot]) << step;
        ASSERT_EQ(deb.soc(), kibamSoc(y1[kSlot], y2[kSlot], params))
            << step;
        ASSERT_EQ(deb.disconnected(), tripped[kSlot] != 0) << step;
        ASSERT_EQ(deb.lvdTrips(), trips[kSlot]) << step;
        ASSERT_EQ(deb.wear(), cycle[kSlot] + calendar[kSlot]) << step;
        ASSERT_EQ(deb.lifetimeDischarged(), discharged[kSlot]) << step;
        ASSERT_EQ(deb.lifetimeCharged(), charged[kSlot]) << step;
        // The sustainable power reads both wells, not just their sum.
        ASSERT_EQ(deb.availablePower(0.1),
                  unitAvailablePower(y1[kSlot], y2[kSlot],
                                     tripped[kSlot], cfg, params, cache,
                                     0.1))
            << step;
    };

    int step = 0;
    // Fine-tick drain at full rack load until the LVD trips, then a
    // few more requests the tripped LVD refuses.
    for (; step < 1200; ++step) {
        const Joules a = deb.discharge(5210.0, 0.1);
        const Joules b =
            unitDischarge(slot, cfg, params, cache, 5210.0, 0.1);
        ASSERT_EQ(a, b) << step;
        expectSame(step);
    }
    ASSERT_GE(deb.lvdTrips(), 1);
    // Rest, then recharge (through reconnect) at fine and coarse dt.
    for (int i = 0; i < 50; ++i, ++step) {
        deb.rest(1.0);
        unitRest(slot, cfg, params, cache, 1.0);
        expectSame(step);
    }
    for (int i = 0; i < 40; ++i, ++step) {
        const double dt = i % 2 ? 300.0 : 0.1;
        ASSERT_EQ(deb.charge(1300.0, dt),
                  unitCharge(slot, cfg, params, cache, 1300.0, dt))
            << step;
        expectSame(step);
    }
    ASSERT_FALSE(deb.disconnected());
    // Coarse overdraws: the step delivers until the available well
    // empties part-way through, then rests.
    for (int i = 0; i < 6; ++i, ++step) {
        ASSERT_EQ(deb.discharge(6000.0, 300.0),
                  unitDischarge(slot, cfg, params, cache, 6000.0, 300.0))
            << step;
        expectSame(step);
        deb.charge(1300.0, 300.0);
        unitCharge(slot, cfg, params, cache, 1300.0, 300.0);
        expectSame(step);
    }
    // The neighbouring slots were never touched.
    EXPECT_EQ(y1[0], y1[2]);
    EXPECT_EQ(trips[0] + trips[2], 0);
}

TEST(SuperCap, EnergyFollowsHalfCVSquared)
{
    SuperCapConfig cfg;
    cfg.capacitanceF = 2.0;
    cfg.vMax = 48.0;
    cfg.vMin = 24.0;
    SuperCapacitor cap("t.cap", cfg);
    EXPECT_NEAR(cap.usableCapacity(), 0.5 * 2.0 * (48.0 * 48.0 - 24.0 * 24.0),
                1e-9);
    EXPECT_DOUBLE_EQ(cap.soc(), 1.0);
}

TEST(SuperCap, DischargeLowersVoltageAndDeliversEnergy)
{
    SuperCapConfig cfg;
    cfg.capacitanceF = 2.0;
    cfg.efficiency = 1.0;
    SuperCapacitor cap("t.cap", cfg);
    const Joules got = cap.discharge(500.0, 1.0);
    EXPECT_NEAR(got, 500.0, 1e-6);
    EXPECT_LT(cap.voltage(), cfg.vMax);
}

TEST(SuperCap, StopsAtCutoffVoltage)
{
    SuperCapConfig cfg;
    cfg.capacitanceF = 0.5;
    cfg.efficiency = 1.0;
    SuperCapacitor cap("t.cap", cfg);
    const Joules cap0 = cap.usableCapacity();
    const Joules got = cap.discharge(1.0e6, 10.0);
    EXPECT_NEAR(got, cap0, 1e-6);
    EXPECT_TRUE(cap.depleted());
    EXPECT_NEAR(cap.voltage(), cfg.vMin, 1e-9);
}

TEST(SuperCap, PowerBoundRespected)
{
    SuperCapConfig cfg;
    cfg.maxPower = 1000.0;
    cfg.efficiency = 1.0;
    SuperCapacitor cap("t.cap", cfg);
    const Joules got = cap.discharge(5000.0, 0.5);
    EXPECT_LE(got, 1000.0 * 0.5 + 1e-9);
}

TEST(SuperCap, RechargeRestoresSoc)
{
    SuperCapConfig cfg;
    cfg.efficiency = 1.0;
    SuperCapacitor cap("t.cap", cfg);
    cap.discharge(400.0, 2.0);
    const double low = cap.soc();
    cap.charge(400.0, 2.0);
    EXPECT_GT(cap.soc(), low);
    cap.charge(1.0e9, 10.0);
    EXPECT_NEAR(cap.soc(), 1.0, 1e-9);
}

TEST(ChargePolicy, NamesRoundTrip)
{
    EXPECT_EQ(chargePolicyFromName("online"), ChargePolicyKind::Online);
    EXPECT_EQ(chargePolicyFromName("offline"), ChargePolicyKind::Offline);
    EXPECT_EQ(chargePolicyName(ChargePolicyKind::Online), "online");
}

// The per-unit recharge decision is the chargeWanted() kernel; the
// cluster engine's per-rack recharge (lowest SoC first, within the
// headroom) is pinned bit for bit by DataCenterParity's per-server
// anchors and by golden.ablation_placement.

TEST(ChargePolicy, OnlineTopsUpAnyNonFullUnit)
{
    ChargeControllerConfig cfg;
    cfg.kind = ChargePolicyKind::Online;
    std::uint8_t latch = 0;
    EXPECT_TRUE(chargeWanted(latch, cfg, 0.90));
    EXPECT_TRUE(chargeWanted(latch, cfg, 0.95));
    EXPECT_FALSE(chargeWanted(latch, cfg, 0.9995)); // full
    EXPECT_EQ(latch, 0); // online keeps no latch
}

TEST(ChargePolicy, OfflineWaitsForThreshold)
{
    ChargeControllerConfig cfg;
    cfg.kind = ChargePolicyKind::Offline;
    cfg.offlineStartSoc = 0.40;
    std::uint8_t latch = 0;
    // Above the recharge-start threshold: no charge.
    EXPECT_FALSE(chargeWanted(latch, cfg, 0.60));
    // Below: now it charges, and keeps charging on the way up...
    EXPECT_TRUE(chargeWanted(latch, cfg, 0.35));
    EXPECT_TRUE(chargeWanted(latch, cfg, 0.60));
    // ...until the stop threshold.
    EXPECT_FALSE(chargeWanted(latch, cfg, cfg.offlineStopSoc));
    EXPECT_FALSE(chargeWanted(latch, cfg, 0.60));
}

} // namespace
} // namespace pad::battery
