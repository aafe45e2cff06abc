#include "turboflux/common/deadline.h"

#include <chrono>
#include <thread>

#include "gtest/gtest.h"

namespace turboflux {
namespace {

TEST(Deadline, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.ExpiredNow());
}

TEST(Deadline, ZeroBudgetExpiresImmediatelyOnExactCheck) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_TRUE(d.ExpiredNow());
}

TEST(Deadline, AmortizedCheckEventuallyFires) {
  Deadline d = Deadline::AfterMillis(0);
  bool expired = false;
  // The amortized check reads the clock every 256 calls at most.
  for (int i = 0; i < 1000 && !expired; ++i) expired = d.Expired();
  EXPECT_TRUE(expired);
}

TEST(Deadline, StaysExpired) {
  Deadline d = Deadline::AfterMillis(0);
  ASSERT_TRUE(d.ExpiredNow());
  EXPECT_TRUE(d.Expired());
  EXPECT_TRUE(d.ExpiredNow());
}

TEST(Deadline, GenerousBudgetDoesNotExpire) {
  Deadline d = Deadline::AfterMillis(60 * 1000);
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.ExpiredNow());
}

TEST(Deadline, ExpiresAfterSleep) {
  Deadline d = Deadline::AfterMillis(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(d.ExpiredNow());
}

TEST(Deadline, RemainingReportsBudget) {
  EXPECT_EQ(Deadline::Infinite().Remaining(), std::chrono::milliseconds::max());

  Deadline generous = Deadline::AfterMillis(60'000);
  std::chrono::milliseconds left = generous.Remaining();
  EXPECT_GT(left.count(), 30'000);
  EXPECT_LE(left.count(), 60'000);

  Deadline spent = Deadline::AfterMillis(0);
  EXPECT_TRUE(spent.ExpiredNow());
  EXPECT_EQ(spent.Remaining(), std::chrono::milliseconds(0));
}

// Copying a deadline resets the amortization counter, so the copy's first
// Expired() consults the clock instead of inheriting up to kCheckInterval-1
// free passes from the original — a copy made after expiry must never
// report "not expired".
TEST(Deadline, CopyChecksClockImmediately) {
  Deadline d = Deadline::AfterMillis(0);
  Deadline copy = d;                       // copy-construct
  EXPECT_TRUE(copy.Expired());             // first call already fires

  Deadline assigned = Deadline::Infinite();
  assigned = d;                            // copy-assign
  EXPECT_TRUE(assigned.Expired());

  // The original still amortizes: a factory-made deadline's early Expired()
  // calls may return false before the interval elapses. (Behavioral anchor
  // for the fault-injection poison deadline, which relies on partial
  // progress before the amortized check fires.)
  Deadline fresh = Deadline::AfterMillis(0);
  EXPECT_FALSE(fresh.Expired());
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  double elapsed = watch.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.010);
  EXPECT_LT(elapsed, 2.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 0.010);
}

}  // namespace
}  // namespace turboflux
