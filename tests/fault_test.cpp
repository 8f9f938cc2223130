#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl {
namespace {

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0, fw = 0;
  RegionId grid;
  PartitionId blocks;
  PartitionId halos;

  explicit Fixture(int64_t n, int64_t pieces, RuntimeConfig cfg = {}) : rt(cfg) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    fw = forest.allocate_field(fs, sizeof(double), "w");
    grid = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
    halos = partition_halo(forest, is, blocks, 1);
  }
};

bool has_event(const std::vector<obs::FlightEvent>& events,
               obs::LifecycleEvent kind) {
  for (const obs::FlightEvent& e : events)
    if (e.kind == kind) return true;
  return false;
}

bool poisoned_contains(const FaultReport& report, uint64_t launch,
                       const Point& point) {
  for (const TaskFault& f : report.poisoned)
    if (f.launch == launch && f.point == point) return true;
  return false;
}

// --- failure semantics ----------------------------------------------------

TEST(FaultTest, ExplicitFailPoisonsDownstreamReaders) {
  Fixture fx(8, 4);
  const TaskFnId writer = fx.rt.register_task("writer", [](TaskContext& ctx) {
    if (ctx.point[0] == 1) ctx.fail("boom");
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const TaskFnId reader = fx.rt.register_task("reader", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(1);
    ctx.region(1).domain().for_each(
        [&](const Point& p) { out.write(p, in.read(p) + 1.0); });
  });
  const auto id = ProjectionFunctor::identity(1);
  const LaunchResult w = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4)).with_task(writer).region(
          fx.grid, fx.blocks, id, {fx.fv}, Privilege::kWrite));
  const LaunchResult r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4))
          .with_task(reader)
          .region(fx.grid, fx.blocks, id, {fx.fv}, Privilege::kRead)
          .region(fx.grid, fx.blocks, id, {fx.fw}, Privilege::kWrite));
  fx.rt.wait_all();

  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kExplicit);
  EXPECT_EQ(report.failures[0].launch, w.launch_id);
  EXPECT_EQ(report.failures[0].point, Point::p1(1));
  EXPECT_EQ(report.failures[0].message, "boom");
  EXPECT_EQ(report.failures[0].attempts, 1u);

  // The dependent reader of block 1 is poisoned; its root names the culprit.
  ASSERT_EQ(report.poisoned.size(), 1u);
  EXPECT_EQ(report.poisoned[0].launch, r.launch_id);
  EXPECT_EQ(report.poisoned[0].point, Point::p1(1));
  EXPECT_EQ(report.poisoned[0].root, report.failures[0].seq);
  EXPECT_EQ(report.poisoned[0].attempts, 0u);

  // Independent siblings ran: their outputs are live, block 1's are not.
  auto out = fx.rt.read_region<double>(fx.grid, fx.fw);
  EXPECT_DOUBLE_EQ(out.read(Point::p1(0)), 2.0);
  EXPECT_DOUBLE_EQ(out.read(Point::p1(2)), 0.0);  // poisoned: never written
  EXPECT_DOUBLE_EQ(out.read(Point::p1(6)), 2.0);

  EXPECT_EQ(fx.rt.stats().tasks_failed, 1u);
  EXPECT_EQ(fx.rt.stats().tasks_poisoned, 1u);
  // for_launch() slices the report by launch id.
  EXPECT_TRUE(report.for_launch(w.launch_id).poisoned.empty());
  EXPECT_EQ(report.for_launch(r.launch_id).poisoned.size(), 1u);
}

TEST(FaultTest, ExceptionIsCapturedAsTaskFailure) {
  Fixture fx(8, 4);
  const TaskFnId bad = fx.rt.register_task("bad", [](TaskContext& ctx) {
    if (ctx.point[0] == 2) throw std::runtime_error("kaboom");
  });
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(bad)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kException);
  EXPECT_EQ(report.failures[0].message, "kaboom");
  EXPECT_TRUE(report.poisoned.empty());
}

TEST(FaultTest, PoisonReachesTransitiveReadersButNotSiblings) {
  Fixture fx(8, 4);
  const TaskFnId writer = fx.rt.register_task("writer", [](TaskContext& ctx) {
    if (ctx.point[0] == 0) ctx.fail("root cause");
  });
  const TaskFnId mid = fx.rt.register_task("mid", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(1);
    ctx.region(1).domain().for_each(
        [&](const Point& p) { out.write(p, in.read(p)); });
  });
  const TaskFnId leaf = fx.rt.register_task("leaf", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(1);
    (void)in;
  });
  const auto id = ProjectionFunctor::identity(1);
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(writer).region(
      fx.grid, fx.blocks, id, {fx.fv}, Privilege::kWrite));
  const LaunchResult m = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4))
          .with_task(mid)
          .region(fx.grid, fx.blocks, id, {fx.fv}, Privilege::kRead)
          .region(fx.grid, fx.blocks, id, {fx.fw}, Privilege::kWrite));
  const LaunchResult l = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4)).with_task(leaf).region(
          fx.grid, fx.blocks, id, {fx.fw}, Privilege::kRead));
  fx.rt.wait_all();

  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  const uint64_t root = report.failures[0].seq;
  // Point 0's whole downstream chain is poisoned, all naming the same root.
  EXPECT_TRUE(poisoned_contains(report, m.launch_id, Point::p1(0)));
  EXPECT_TRUE(poisoned_contains(report, l.launch_id, Point::p1(0)));
  for (const TaskFault& f : report.poisoned) EXPECT_EQ(f.root, root);
  // Independent siblings (other blocks) are untouched.
  EXPECT_FALSE(poisoned_contains(report, m.launch_id, Point::p1(1)));
  EXPECT_FALSE(poisoned_contains(report, l.launch_id, Point::p1(3)));
  EXPECT_EQ(report.poisoned.size(), 2u);
}

// --- deterministic fault injection ---------------------------------------

TEST(FaultTest, InjectedFaultFiresForExactLaunchPointAttempt) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(2));
  cfg.fault_plan = plan;
  Fixture fx(8, 4, cfg);
  std::atomic<int> ran{0};
  const TaskFnId count = fx.rt.register_task("count", [&](TaskContext& ctx) {
    (void)ctx;
    ran.fetch_add(1);
  });
  const LaunchResult r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4)).with_task(count).region(
          fx.grid, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
          Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_EQ(ran.load(), 3);  // the injected point's body never ran
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kInjected);
  EXPECT_EQ(report.failures[0].launch, r.launch_id);
  EXPECT_EQ(report.failures[0].point, Point::p1(2));
  EXPECT_EQ(fx.rt.stats().fault_injections, 1u);
}

TEST(FaultTest, FaultPlanParseRoundTrip) {
  const FaultPlan plan = FaultPlan::parse("3@(1,2):2;0@(5);random:42:0.5");
  EXPECT_TRUE(plan.should_fail(3, Point::p2(1, 2), 2));
  EXPECT_FALSE(plan.should_fail(3, Point::p2(1, 2), 1));
  EXPECT_TRUE(plan.should_fail(0, Point::p1(5), 0));
  // Round trip: parse(to_string) injects the identical explicit set.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_TRUE(again.should_fail(3, Point::p2(1, 2), 2));
  EXPECT_TRUE(again.should_fail(0, Point::p1(5), 0));
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_THROW(FaultPlan::parse("not-a-plan"), RuntimeError);
}

TEST(FaultTest, SeededRandomPlanIsAPureFunction) {
  const FaultPlan a = FaultPlan::random(7, 0.25);
  const FaultPlan b = FaultPlan::random(7, 0.25);
  int hits = 0;
  for (int64_t i = 0; i < 400; ++i) {
    const bool fa = a.should_fail(3, Point::p1(i), 0);
    EXPECT_EQ(fa, b.should_fail(3, Point::p1(i), 0));
    hits += fa ? 1 : 0;
  }
  EXPECT_GT(hits, 40);   // ~100 expected
  EXPECT_LT(hits, 200);
  // Different seeds decide differently somewhere.
  const FaultPlan c = FaultPlan::random(8, 0.25);
  bool diverged = false;
  for (int64_t i = 0; i < 400 && !diverged; ++i)
    diverged = a.should_fail(3, Point::p1(i), 0) != c.should_fail(3, Point::p1(i), 0);
  EXPECT_TRUE(diverged);
}

FaultReport run_seeded_program(uint64_t seed) {
  RuntimeConfig cfg;
  cfg.fault_plan = std::make_shared<FaultPlan>(FaultPlan::random(seed, 0.15));
  Fixture fx(64, 16, cfg);
  const TaskFnId step = fx.rt.register_task("step", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  for (int it = 0; it < 3; ++it)
    fx.rt.execute_index(IndexLauncher::over(Domain::line(16)).with_task(step).region(
        fx.grid, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
        Privilege::kWrite));
  fx.rt.wait_all();
  return fx.rt.fault_report();
}

TEST(FaultTest, SeededPlanIsBitForBitReproducible) {
  const FaultReport first = run_seeded_program(1234);
  const FaultReport second = run_seeded_program(1234);
  EXPECT_FALSE(first.ok());  // rate 0.15 over 48 tasks: essentially certain
  EXPECT_EQ(first, second);  // same failed points, same poisoned set
  EXPECT_EQ(first.to_string(), second.to_string());
}

// --- retry / timeout ------------------------------------------------------

TEST(FaultTest, RetrySucceedsOnAttemptK) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(2), 0).fail(0, Point::p1(2), 1);
  cfg.fault_plan = plan;
  Fixture fx(8, 4, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, 1.0 + ctx.attempt()); });
  });
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(fill)
                          .retries(3)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_TRUE(fx.rt.fault_report().ok());  // retried to success: not a fault
  EXPECT_EQ(fx.rt.stats().retry_attempts, 2u);
  EXPECT_EQ(fx.rt.stats().retries_succeeded, 1u);
  EXPECT_EQ(fx.rt.stats().fault_injections, 2u);
  auto acc = fx.rt.read_region<double>(fx.grid, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(4)), 3.0);  // block 2 wrote on attempt 2
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 1.0);  // others on attempt 0
}

TEST(FaultTest, RetriesExhaustedReportsTerminalFault) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  for (uint32_t k = 0; k < 3; ++k) plan->fail(0, Point::p1(1), k);
  cfg.fault_plan = plan;
  Fixture fx(8, 4, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(noop)
                          .retries(2)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kInjected);
  EXPECT_EQ(report.failures[0].attempts, 3u);  // attempts 0, 1, 2 all ran
  EXPECT_EQ(fx.rt.stats().retry_attempts, 2u);
  EXPECT_EQ(fx.rt.stats().retries_succeeded, 0u);
}

TEST(FaultTest, BackoffDelaysRetry) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(0), 0).fail(0, Point::p1(0), 1);
  cfg.fault_plan = plan;
  Fixture fx(8, 1, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const auto start = std::chrono::steady_clock::now();
  fx.rt.execute_index(IndexLauncher::over(Domain::line(1))
                          .with_task(noop)
                          .retries(3)
                          .backoff(40)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(fx.rt.fault_report().ok());
  // Exponential backoff: 40 ms before attempt 1, 80 ms before attempt 2.
  EXPECT_GE(elapsed.count(), 100);
}

TEST(FaultTest, TimeoutCancelsSleepingTask) {
  Fixture fx(8, 1);
  const TaskFnId sleepy = fx.rt.register_task("sleepy", [](TaskContext& ctx) {
    // Cooperative cancellation: poll between bounded sleeps. The 2 s cap
    // keeps a broken timeout from hanging the suite.
    for (int i = 0; i < 400; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ctx.check_cancelled();
    }
  });
  fx.rt.execute(TaskLauncher::for_task(sleepy)
                    .timeout(50)
                    .region(fx.grid, {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kTimeout);
  EXPECT_EQ(fx.rt.stats().tasks_failed, 1u);
}

TEST(FaultTest, TimeoutIsNotRetried) {
  Fixture fx(8, 1);
  std::atomic<int> attempts{0};
  const TaskFnId sleepy = fx.rt.register_task("sleepy", [&](TaskContext& ctx) {
    attempts.fetch_add(1);
    for (int i = 0; i < 400; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ctx.check_cancelled();
    }
  });
  fx.rt.execute(TaskLauncher::for_task(sleepy)
                    .timeout(30)
                    .retries(5)
                    .region(fx.grid, {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_EQ(attempts.load(), 1);  // cancellation is terminal, not retryable
  ASSERT_EQ(fx.rt.fault_report().failures.size(), 1u);
  EXPECT_EQ(fx.rt.fault_report().failures[0].kind, FaultKind::kTimeout);
}

// --- watchdog cancel action ----------------------------------------------

TEST(FaultTest, WatchdogCancelsStalledLaunch) {
  RuntimeConfig cfg;
  cfg.enable_watchdog = true;
  cfg.watchdog_check_period_ms = 10;
  cfg.watchdog_stall_window_ms = 100;
  cfg.watchdog_cancel = true;
  cfg.watchdog_dump_path = "/dev/null";
  Fixture fx(8, 1, cfg);
  const TaskFnId stuck = fx.rt.register_task("stuck", [](TaskContext& ctx) {
    // Spins forever unless cancelled: the stall the watchdog must break.
    for (int i = 0; i < 4000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ctx.check_cancelled();
    }
  });
  fx.rt.execute(TaskLauncher::for_task(stuck).region(fx.grid, {fx.fv},
                                                     Privilege::kWrite));
  fx.rt.wait_all();  // returns because the watchdog cancelled the run
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kCancelled);

  // clear_faults() re-arms the runtime after a cancel_all().
  fx.rt.clear_faults();
  std::atomic<bool> ran{false};
  const TaskFnId ok = fx.rt.register_task("ok", [&](TaskContext&) { ran = true; });
  fx.rt.execute(TaskLauncher::for_task(ok).region(fx.grid, {fx.fw},
                                                  Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(fx.rt.fault_report().ok());
}

// --- traces ---------------------------------------------------------------

TEST(FaultTest, InvalidatedTraceRecaptures) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(0));  // fails iteration 0's launch only
  cfg.fault_plan = plan;
  Fixture fx(8, 4, cfg);
  std::atomic<int> ran{0};
  const TaskFnId tick = fx.rt.register_task("tick", [&](TaskContext&) { ran++; });
  // No region arguments: iterations are independent, so the poison stays
  // inside iteration 0 and later iterations can re-capture cleanly.
  for (int it = 0; it < 4; ++it) {
    fx.rt.begin_trace(9);
    fx.rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(tick));
    fx.rt.end_trace(9);
  }
  fx.rt.wait_all();
  // Iteration 0 captured but contained a failure -> invalidated, not kept.
  // Iteration 1 re-captures; iterations 2 and 3 replay.
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 2u * 4u);
  ASSERT_EQ(fx.rt.fault_report().failures.size(), 1u);
  EXPECT_EQ(fx.rt.fault_report().failures[0].kind, FaultKind::kInjected);
  EXPECT_EQ(ran.load(), 15);  // 16 tasks minus the injected one
}

// --- differential: a zero plan changes nothing ----------------------------

std::vector<double> run_stencil(RuntimeConfig cfg) {
  const int64_t n = 64, pieces = 8;
  Fixture fx(n, pieces, cfg);
  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId step = fx.rt.register_task("step", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(1);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double v = in.read(p);
      const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
      if (halo.contains(l)) v += in.read(l);
      if (halo.contains(r)) v += in.read(r);
      out.write(p, v);
    });
  });
  const TaskFnId copy = fx.rt.register_task("copy", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(1);
    auto out = ctx.region(1).accessor<double>(0);
    ctx.region(1).domain().for_each(
        [&](const Point& p) { out.write(p, in.read(p)); });
  });
  const auto id = ProjectionFunctor::identity(1);
  fx.rt.execute_index(IndexLauncher::over(Domain::line(pieces)).with_task(init).region(
      fx.grid, fx.blocks, id, {fx.fv}, Privilege::kWrite));
  for (int it = 0; it < 3; ++it) {
    fx.rt.execute_index(IndexLauncher::over(Domain::line(pieces))
                            .with_task(step)
                            .region(fx.grid, fx.halos, id, {fx.fv}, Privilege::kRead)
                            .region(fx.grid, fx.blocks, id, {fx.fw}, Privilege::kWrite));
    fx.rt.execute_index(IndexLauncher::over(Domain::line(pieces))
                            .with_task(copy)
                            .region(fx.grid, fx.blocks, id, {fx.fw}, Privilege::kRead)
                            .region(fx.grid, fx.blocks, id, {fx.fv}, Privilege::kWrite));
  }
  fx.rt.wait_all();
  EXPECT_TRUE(fx.rt.fault_report().ok());
  auto acc = fx.rt.read_region<double>(fx.grid, fx.fv);
  std::vector<double> out;
  for (int64_t i = 0; i < n; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

TEST(FaultTest, EmptyFaultPlanLeavesRegionContentsIdentical) {
  const std::vector<double> baseline = run_stencil(RuntimeConfig{});
  RuntimeConfig cfg;
  cfg.fault_plan = std::make_shared<FaultPlan>();  // installed but empty
  EXPECT_EQ(run_stencil(cfg), baseline);
}

// --- observability --------------------------------------------------------

TEST(FaultTest, FaultsEmitMetricsAndFlightRecorderEvents) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(1), 0);
  cfg.fault_plan = plan;
  Fixture fx(8, 4, cfg);
  const TaskFnId writer = fx.rt.register_task("writer", [](TaskContext&) {});
  const TaskFnId reader = fx.rt.register_task("reader", [](TaskContext&) {});
  const auto id = ProjectionFunctor::identity(1);
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(writer).region(
      fx.grid, fx.blocks, id, {fx.fv}, Privilege::kWrite));
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(reader).region(
      fx.grid, fx.blocks, id, {fx.fv}, Privilege::kRead));
  fx.rt.wait_all();

  const obs::MetricsSnapshot snap = fx.rt.metrics().snapshot();
  EXPECT_EQ(snap.value("idxl_fault_tasks_total", {{"kind", "injected"}}), 1u);
  EXPECT_EQ(snap.value("idxl_fault_poisoned_total"), 1u);
  EXPECT_EQ(snap.value("idxl_fault_injections_total"), 1u);

  const std::vector<obs::FlightEvent> events = fx.rt.flight_recorder().snapshot();
  EXPECT_TRUE(has_event(events, obs::LifecycleEvent::kFailed));
  EXPECT_TRUE(has_event(events, obs::LifecycleEvent::kPoisoned));
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::LifecycleEvent::kFailed) {
      EXPECT_EQ(e.detail, obs::LifecycleDetail::kInjected);
    }
  }
}

TEST(FaultTest, RetriesEmitMetricsAndFlightRecorderEvents) {
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(0), 0);
  cfg.fault_plan = plan;
  Fixture fx(8, 1, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(1))
                          .with_task(noop)
                          .retries(1)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  const obs::MetricsSnapshot snap = fx.rt.metrics().snapshot();
  EXPECT_EQ(snap.value("idxl_retry_attempts_total"), 1u);
  EXPECT_EQ(snap.value("idxl_retry_succeeded_total"), 1u);
  const std::vector<obs::FlightEvent> events = fx.rt.flight_recorder().snapshot();
  bool saw_retry = false;
  for (const obs::FlightEvent& e : events)
    if (e.kind == obs::LifecycleEvent::kRetry) {
      saw_retry = true;
      EXPECT_EQ(e.edge, 1u);  // the attempt number about to run
    }
  EXPECT_TRUE(saw_retry);
}

// --- environment override -------------------------------------------------

TEST(FaultTest, EnvSpecInstallsPlan) {
  ::setenv("IDXL_FAULT_PLAN", "0@(3)", 1);
  Fixture fx(8, 4);
  ::unsetenv("IDXL_FAULT_PLAN");
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(noop).region(
      fx.grid, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
      Privilege::kWrite));
  fx.rt.wait_all();
  const FaultReport report = fx.rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].point, Point::p1(3));
  EXPECT_EQ(report.failures[0].kind, FaultKind::kInjected);
}

// --- acceptance demo: 1024-point launch survives a failure via retry ------

TEST(FaultTest, ThousandPointLaunchSurvivesInjectedFailureViaRetry) {
  constexpr int64_t kPoints = 1024;
  RuntimeConfig cfg;
  auto plan = std::make_shared<FaultPlan>();
  plan->fail(0, Point::p1(137), 0);  // one mid-launch casualty, first attempt
  cfg.fault_plan = plan;
  Fixture fx(kPoints, kPoints, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0]) * 2.0); });
  });
  const LaunchResult r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(kPoints))
          .with_task(fill)
          .retries(2)
          .region(fx.grid, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_TRUE(r.ran_as_index_launch);
  EXPECT_TRUE(fx.rt.fault_report().ok());
  EXPECT_EQ(fx.rt.stats().retries_succeeded, 1u);
  auto acc = fx.rt.read_region<double>(fx.grid, fx.fv);
  for (int64_t i = 0; i < kPoints; ++i)
    ASSERT_DOUBLE_EQ(acc.read(Point::p1(i)), static_cast<double>(i) * 2.0) << i;
}

// --- fault-injection soak (nightly CI scales the knobs up) ----------------

// Every poisoned task must name a recorded root failure that precedes it.
void check_report_invariants(const FaultReport& report) {
  for (const TaskFault& p : report.poisoned) {
    EXPECT_EQ(p.kind, FaultKind::kPoisoned);
    EXPECT_LT(p.root, p.seq);
    bool found = false;
    for (const TaskFault& f : report.failures) found = found || f.seq == p.root;
    EXPECT_TRUE(found) << "poisoned task names unknown root " << p.root;
  }
  for (const TaskFault& f : report.failures) EXPECT_GE(f.attempts, 1u);
}

// --- fence-time auto-dump -------------------------------------------------

TEST(FaultTest, FenceWithNewFaultsDumpsStateToStderr) {
  // A fence that observes new task faults auto-dumps the flight-recorder
  // tail and metrics snapshot (IDXL_DUMP_ON_FAULT defaults on).
  unsetenv("IDXL_DUMP_ON_FAULT");
  Fixture fx(8, 4);
  const TaskFnId boom = fx.rt.register_task("boom", [](TaskContext& ctx) {
    if (ctx.point[0] == 2) ctx.fail("kaput");
  });
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(boom)
                          .region(fx.grid, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  testing::internal::CaptureStderr();
  fx.rt.wait_all();
  const std::string dump = testing::internal::GetCapturedStderr();
  EXPECT_NE(dump.find("fence observed new task faults"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("1 failures"), std::string::npos) << dump;
  EXPECT_NE(dump.find("lifecycle events"), std::string::npos) << dump;

  // The same faults again at the next fence: already dumped, stay quiet.
  testing::internal::CaptureStderr();
  fx.rt.wait_all();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(FaultTest, FaultDumpHonorsOptOut) {
  ASSERT_EQ(setenv("IDXL_DUMP_ON_FAULT", "0", 1), 0);
  Fixture fx(8, 4);
  const TaskFnId boom = fx.rt.register_task(
      "boom", [](TaskContext& ctx) { ctx.fail("kaput"); });
  fx.rt.execute(TaskLauncher::for_task(boom).region(fx.grid, {fx.fv},
                                                    Privilege::kWrite));
  testing::internal::CaptureStderr();
  fx.rt.wait_all();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("IDXL_DUMP_ON_FAULT");
}

TEST(FaultSoak, RandomPlansKeepReportsConsistentAndReproducible) {
  // Nightly stress: IDXL_SOAK_SEEDS=200 IDXL_SOAK_BASE_SEED=$RANDOM.
  // On failure the seed is in the assertion trace — replay locally with
  // IDXL_SOAK_SEEDS=1 IDXL_SOAK_BASE_SEED=<seed>.
  const char* n_env = std::getenv("IDXL_SOAK_SEEDS");
  const char* base_env = std::getenv("IDXL_SOAK_BASE_SEED");
  const uint64_t seeds = n_env != nullptr ? std::strtoull(n_env, nullptr, 10) : 3;
  const uint64_t base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 20260806;
  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("IDXL_SOAK_BASE_SEED=" + std::to_string(seed));
    const FaultReport report = run_seeded_program(seed);
    check_report_invariants(report);
    EXPECT_EQ(report, run_seeded_program(seed));  // deterministic replay
  }
}

}  // namespace
}  // namespace idxl
