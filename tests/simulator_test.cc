#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/timer.h"

namespace ecnsharp {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Microseconds(30), [&order] { order.push_back(3); });
  sim.Schedule(Time::Microseconds(10), [&order] { order.push_back(1); });
  sim.Schedule(Time::Microseconds(20), [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Time::Microseconds(30));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, FifoAmongEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(1), [&sim, &fired] {
    ++fired;
    sim.Schedule(Time::Microseconds(1), [&fired] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Time::Microseconds(2));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Time::Microseconds(5), [&sim, &fired] {
    sim.Schedule(Time::Microseconds(-3), [&sim, &fired] {
      fired = true;
      EXPECT_EQ(sim.Now(), Time::Microseconds(5));
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id =
      sim.Schedule(Time::Microseconds(1), [&fired] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelInvalidIdIsNoOp) {
  Simulator sim;
  sim.Cancel(EventId{});
  sim.Cancel(EventId{12345});
  sim.Run();
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(1), [&sim, &fired] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Time::Microseconds(2), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Time::Milliseconds(7));
  EXPECT_EQ(sim.Now(), Time::Milliseconds(7));
}

TEST(SimulatorTest, RunUntilExecutesOnlyDueEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Time::Microseconds(10), [&fired] { ++fired; });
  sim.Schedule(Time::Microseconds(30), [&fired] { ++fired; });
  sim.RunUntil(Time::Microseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Time::Microseconds(20));
  sim.RunUntil(Time::Microseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Time::Microseconds(10));
  sim.RunFor(Time::Microseconds(10));
  EXPECT_EQ(sim.Now(), Time::Microseconds(20));
}

TEST(SimulatorTest, EventAtExactRunUntilBoundaryExecutes) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Time::Microseconds(10), [&fired] { fired = true; });
  sim.RunUntil(Time::Microseconds(10));
  EXPECT_TRUE(fired);
}

TEST(TimerTest, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  EXPECT_TRUE(timer.pending());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, RescheduleReplacesPending) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  timer.Schedule(Time::Microseconds(50));
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Time::Microseconds(50));
}

TEST(TimerTest, CancelStopsFire) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.Schedule(Time::Microseconds(5));
  timer.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, ReschedulableFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* handle = nullptr;
  Timer timer(sim, [&] {
    if (++fired < 3) handle->Schedule(Time::Microseconds(10));
  });
  handle = &timer;
  timer.Schedule(Time::Microseconds(10));
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), Time::Microseconds(30));
}

TEST(TimerTest, ExpiryReportsAbsoluteTime) {
  Simulator sim;
  Timer timer(sim, [] {});
  sim.RunUntil(Time::Microseconds(100));
  timer.Schedule(Time::Microseconds(20));
  EXPECT_EQ(timer.expiry(), Time::Microseconds(120));
}

// Reference eager timer built from raw one-shot events: every (re)arm
// cancels the previous event and schedules a new one. The lazy Timer must
// fire at exactly the points in the event order where this one does.
class EagerTimer {
 public:
  EagerTimer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  ~EagerTimer() { Cancel(); }
  void Schedule(Time delay) { ScheduleAt(sim_.Now() + delay); }
  void ScheduleAt(Time when) {
    Cancel();
    pending_ = true;
    event_ = sim_.ScheduleAt(when, [this] {
      pending_ = false;
      callback_();
    });
  }
  void Cancel() {
    if (pending_) sim_.Cancel(event_);
    pending_ = false;
  }
  bool pending() const { return pending_; }

 private:
  Simulator& sim_;
  std::function<void()> callback_;
  EventId event_{};
  bool pending_ = false;
};

// One dispatched callback: a timer expiry (who >= 0) or a plain event
// (who == -1), with the timers' pending() bits as the callback saw them.
// Its index in the log is its position in the event order.
struct FireRecord {
  Time when;
  int who;
  std::uint32_t pending_mask;
  bool operator==(const FireRecord& o) const {
    return when == o.when && who == o.who && pending_mask == o.pending_mask;
  }
};

struct TimerScriptRun {
  std::vector<FireRecord> log;
  std::uint64_t events = 0;  // dispatched, including lazy no-op wake-ups
};

// Drives several timers with a seeded random script: six chains of plain
// events at colliding 100 ns-grid timestamps run 6,000 operations that arm,
// re-arm (to earlier, later, equal or past deadlines) and cancel random
// timers; timer callbacks re-arm themselves or others. Every random draw
// happens inside a callback, so identical dispatch sequences consume
// identical draws, and the first divergence shows in the log.
template <typename T>
TimerScriptRun RunTimerScript(std::uint64_t seed) {
  constexpr int kTimers = 8;
  Simulator sim;
  Rng rng(seed);
  std::vector<FireRecord> log;
  std::vector<std::unique_ptr<T>> timers;
  int ops_left = 6000;

  const auto grid = [&rng](std::uint64_t n) {
    return Time::Nanoseconds(100 *
                             static_cast<std::int64_t>(rng.UniformInt(n)));
  };
  const auto pending_mask = [&timers] {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (timers[i]->pending()) mask |= 1u << i;
    }
    return mask;
  };
  const auto random_op = [&] {
    if (ops_left <= 0) return;
    --ops_left;
    T& timer = *timers[rng.UniformInt(kTimers)];
    switch (rng.UniformInt(6)) {
      case 0:
        timer.Cancel();
        break;
      case 1:  // deadline in the past: clamps to now
        timer.ScheduleAt(sim.Now() - grid(5));
        break;
      default:
        timer.Schedule(grid(40));
        break;
    }
  };
  std::function<void()> plain = [&] {
    log.push_back({sim.Now(), -1, pending_mask()});
    const auto ops = 1 + rng.UniformInt(3);
    for (std::uint64_t i = 0; i < ops; ++i) random_op();
    if (ops_left > 0) sim.Schedule(grid(20), plain);
  };
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<T>(sim, [&, i] {
      log.push_back({sim.Now(), i, pending_mask()});
      switch (rng.UniformInt(4)) {
        case 0:  // re-arm from its own callback
          timers[static_cast<std::size_t>(i)]->Schedule(grid(30));
          break;
        case 1:
          random_op();
          break;
        default:
          break;
      }
    }));
  }
  for (int i = 0; i < 6; ++i) sim.Schedule(grid(50), plain);
  sim.Run();
  return {log, sim.events_executed()};
}

TEST(TimerTest, LazyRearmMatchesEagerReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TimerScriptRun eager = RunTimerScript<EagerTimer>(seed);
    const TimerScriptRun lazy = RunTimerScript<Timer>(seed);
    std::size_t expiries = 0;
    for (const FireRecord& r : eager.log) expiries += r.who >= 0 ? 1 : 0;
    EXPECT_GT(expiries, 1000u) << "seed " << seed;
    // The lazy timer dispatched extra (no-op or deferring) wake-ups, so the
    // script did exercise its deferred re-arm path.
    EXPECT_GT(lazy.events, eager.events) << "seed " << seed;
    ASSERT_EQ(eager.log.size(), lazy.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < eager.log.size(); ++i) {
      const FireRecord& e = eager.log[i];
      const FireRecord& l = lazy.log[i];
      ASSERT_TRUE(e == l) << "seed " << seed << " diverges at position " << i
                          << ": eager (" << e.when.ns() << " ns, " << e.who
                          << ") lazy (" << l.when.ns() << " ns, " << l.who
                          << ")";
    }
  }
}

TEST(TimerTest, EarlierDeadlineRearmFiresAtNewKey) {
  Simulator sim;
  std::vector<int> order;
  Timer timer(sim, [&] { order.push_back(0); });
  timer.Schedule(Time::Microseconds(50));
  sim.ScheduleAt(Time::Microseconds(10), [&] { order.push_back(1); });
  timer.Schedule(Time::Microseconds(10));
  sim.ScheduleAt(Time::Microseconds(10), [&] { order.push_back(2); });
  EXPECT_EQ(timer.expiry(), Time::Microseconds(10));
  sim.Run();
  // The re-arm takes the FIFO position of its own ScheduleAt call, and the
  // abandoned 50 us occurrence never runs.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(sim.Now(), Time::Microseconds(10));
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, DestructionWhileArmedNeverFires) {
  Simulator sim;
  int fired = 0;
  auto armed = std::make_unique<Timer>(sim, [&fired] { ++fired; });
  armed->Schedule(Time::Microseconds(5));
  // Armed occurrence earlier than the deadline (lazy re-arm pending).
  auto moved = std::make_unique<Timer>(sim, [&fired] { ++fired; });
  moved->Schedule(Time::Microseconds(5));
  moved->Schedule(Time::Microseconds(20));
  // Cancelled, with its occurrence still armed as a no-op wake-up.
  auto cancelled = std::make_unique<Timer>(sim, [&fired] { ++fired; });
  cancelled->Schedule(Time::Microseconds(5));
  cancelled->Cancel();
  armed.reset();
  sim.ScheduleAt(Time::Microseconds(1), [&] {
    moved.reset();
    cancelled.reset();
  });
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RestartsKeepOnePendingEntryPerTimer) {
  Simulator sim;
  int fired = 0;
  Timer rto(sim, [&fired] { ++fired; });
  Timer delack(sim, [&fired] { ++fired; });
  Timer idle(sim, [&fired] { ++fired; });
  for (int i = 0; i < 10'000; ++i) {
    // Retransmission-timer pattern: restart on every ACK.
    rto.Schedule(Time::Milliseconds(5));
    // Delayed-ACK pattern: arm on one segment, cancel on the next.
    if (i % 2 == 0) {
      delack.Schedule(Time::Microseconds(40));
    } else {
      delack.Cancel();
    }
    sim.RunFor(Time::Microseconds(1));
    ASSERT_LE(sim.pending_events(), 2u) << "restart " << i;
  }
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(idle.pending());
}

}  // namespace
}  // namespace ecnsharp
