// Runtime lock-rank detector (src/util/sync.cpp): a deliberate rank
// inversion must abort with both lock names, and legal chains must stay
// silent. The detector only exists under CLARENS_LOCK_RANK_CHECK (debug
// / asan / tsan / lockrank presets); in release builds these tests skip.

#include "util/sync.hpp"

#include <gtest/gtest.h>

namespace clarens::util {
namespace {

#if defined(CLARENS_LOCK_RANK_CHECK) && CLARENS_LOCK_RANK_CHECK

TEST(LockRankDeathTest, AbortsOnInvertedAcquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex inner{LockLevel::kDbStoreJournal};
        Mutex outer{LockLevel::kTaskEngine};
        LockGuard hold(inner);
        // clarens-lint: allow(lock-order): deliberate inversion under EXPECT_DEATH
        LockGuard up(outer);  // rank 20 while holding rank 50
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, AbortsOnSameRankWithoutToken) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a{LockLevel::kTaskEngine};
        Mutex b{LockLevel::kCoreShell};  // also rank 20
        LockGuard ga(a);
        // clarens-lint: allow(lock-order): deliberate inversion under EXPECT_DEATH
        LockGuard gb(b);  // sideways without a SameRankToken
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, AbortsOnRecursiveAcquisition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex m{LockLevel::kTaskEngine};
        LockGuard first(m);
        // clarens-lint: allow(lock-order): deliberate inversion under EXPECT_DEATH
        LockGuard second(m);  // self-deadlock caught before blocking
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SharedLockRanksLikeExclusive) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SharedMutex shard{LockLevel::kDbStoreShard};
        Mutex job{LockLevel::kTaskEngine};
        ReadLock read(shard);
        // clarens-lint: allow(lock-order): deliberate inversion under EXPECT_DEATH
        LockGuard up(job);  // upward from a shared hold still aborts
      },
      "lock-rank violation");
}

TEST(LockRank, LegalDownwardChainIsSilent) {
  Mutex job{LockLevel::kTaskEngine};
  SharedMutex shard{LockLevel::kDbStoreShard};
  Mutex journal{LockLevel::kDbStoreJournal};
  {
    LockGuard g1(job);
    WriteLock g2(shard);
    UniqueLock g3(journal);
    EXPECT_EQ(rank_check::held_count(), 3);
  }
  EXPECT_EQ(rank_check::held_count(), 0);
}

TEST(LockRank, SameRankTokenPermitsSidewaysNesting) {
  Mutex write{LockLevel::kCoreVoWrite};
  Mutex cache{LockLevel::kCoreVoRootCache};
  LockGuard outer(write);
  LockGuard inner(cache, SameRankToken{"core.vo.write -> root_cache"});
  EXPECT_EQ(rank_check::held_count(), 2);
}

TEST(LockRank, OutOfOrderReleaseKeepsStackConsistent) {
  Mutex job{LockLevel::kTaskEngine};
  Mutex journal{LockLevel::kDbStoreJournal};
  Mutex logging{LockLevel::kUtilLogging};
  job.lock();
  journal.lock();
  job.unlock();  // release the *outer* lock first
  EXPECT_EQ(rank_check::held_count(), 1);
  logging.lock();  // still legal downward from journal
  EXPECT_EQ(rank_check::held_count(), 2);
  logging.unlock();
  journal.unlock();
  EXPECT_EQ(rank_check::held_count(), 0);
  // With nothing held, acquiring the low-rank lock again is legal.
  LockGuard again(job);
  EXPECT_EQ(rank_check::held_count(), 1);
}

#else  // !CLARENS_LOCK_RANK_CHECK

TEST(LockRank, DetectorCompiledOut) {
  GTEST_SKIP() << "CLARENS_LOCK_RANK_CHECK is off in this build; the "
                  "detector runs in the debug/asan/tsan/lockrank presets";
}

#endif

}  // namespace
}  // namespace clarens::util
