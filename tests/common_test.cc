// Unit tests for src/common: checksum, RNG/zipfian, byte helpers, and the
// epoch-based reclamation machinery (batched retire-list sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/common/service_pool.h"
#include "src/common/status.h"

namespace {

TEST(Bytes, AlignHelpers) {
  EXPECT_EQ(common::AlignDown(4097, 4096), 4096u);
  EXPECT_EQ(common::AlignDown(4096, 4096), 4096u);
  EXPECT_EQ(common::AlignUp(4097, 4096), 8192u);
  EXPECT_EQ(common::AlignUp(4096, 4096), 4096u);
  EXPECT_EQ(common::AlignUp(0, 4096), 0u);
  EXPECT_TRUE(common::IsAligned(8192, 4096));
  EXPECT_FALSE(common::IsAligned(8193, 4096));
  EXPECT_EQ(common::DivCeil(1, 4096), 1u);
  EXPECT_EQ(common::DivCeil(4096, 4096), 1u);
  EXPECT_EQ(common::DivCeil(4097, 4096), 2u);
  EXPECT_EQ(common::DivCeil(0, 4096), 0u);
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Crc32c, KnownVector) {
  // Standard CRC32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(common::Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(common::Crc32c("", 0), 0u); }

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(64, 0xAB);
  uint32_t before = common::Crc32c(buf.data(), buf.size());
  buf[17] ^= 0x01;
  EXPECT_NE(before, common::Crc32c(buf.data(), buf.size()));
}

TEST(Crc32c, Rfc3720Vectors) {
  // iSCSI CRC32C test vectors, RFC 3720 §B.4.
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(common::Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(common::Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(common::Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(common::Crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32c, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1100 and around one 4 KiB block, from all 8 start alignments: every
  // split between the 8-byte word loop and the byte tail, and every misalignment.
  std::vector<uint8_t> buf = RandomBytes(4100 + 8, 11);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1100; ++n) {
    lengths.push_back(n);
  }
  for (size_t n = 4090; n <= 4100; ++n) {
    lengths.push_back(n);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n : lengths) {
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(common::Crc32c(p, n), common::Crc32cReference(p, n))
          << "len " << n << " align " << align;
      ASSERT_EQ(common::Crc32c(p, n, 0x9E3779B9u),
                common::Crc32cReference(p, n, 0x9E3779B9u))
          << "seeded, len " << n << " align " << align;
    }
  }
}

TEST(Crc32c, MatchesReferenceOnRandomInputs) {
  common::Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    size_t n = rng.Range(0, 10000);
    size_t align = rng.Range(0, 7);
    uint32_t seed = static_cast<uint32_t>(rng.Next());
    std::vector<uint8_t> buf = RandomBytes(n + align, rng.Next());
    const uint8_t* p = buf.data() + align;
    ASSERT_EQ(common::Crc32c(p, n, seed), common::Crc32cReference(p, n, seed))
        << "case " << i << ": len " << n << " align " << align;
  }
}

TEST(Crc32c, SeedChaining) {
  // Chaining through the seed at every split point of a 300-byte buffer.
  std::vector<uint8_t> buf = RandomBytes(300, 5);
  const uint32_t whole = common::Crc32cReference(buf.data(), buf.size());
  ASSERT_EQ(common::Crc32c(buf.data(), buf.size()), whole);
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t part = common::Crc32c(buf.data(), split);
    part = common::Crc32c(buf.data() + split, buf.size() - split, part);
    ASSERT_EQ(part, whole) << "split at " << split;
  }
}

TEST(Rng, DeterministicPerSeed) {
  common::Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformInRange) {
  common::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  common::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, StaysInRange) {
  common::ZipfianGenerator z(1000, 0.99, 3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(z.Next(), 1000u);
    EXPECT_LT(z.NextScrambled(), 1000u);
  }
}

TEST(Zipfian, IsSkewed) {
  // Rank 0 should dominate: with theta=0.99 over 1000 items, item 0 gets ~12% of mass.
  common::ZipfianGenerator z(1000, 0.99, 5);
  int zero_hits = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.Next() == 0) {
      ++zero_hits;
    }
  }
  EXPECT_GT(zero_hits, kDraws / 20);  // Far above the uniform 1/1000.
}

TEST(Zipfian, ScrambledSpreadsHotKeys) {
  common::ZipfianGenerator z(1000, 0.99, 5);
  std::set<uint64_t> distinct;
  for (int i = 0; i < 1000; ++i) {
    distinct.insert(z.NextScrambled());
  }
  EXPECT_GT(distinct.size(), 100u);  // Not collapsed onto a handful of ranks.
}

// --- Epoch GC: batched (generation-counted) retire-list sweeps ------------------------

struct CountedObject {
  explicit CountedObject(int* live) : live_(live) { ++*live_; }
  ~CountedObject() { --*live_; }
  int* live_;
};

TEST(EpochGc, RetireDefersSweepsUntilTheGenerationBoundary) {
  // An invalidation storm with no reader pinned: retirements accumulate without a
  // registry walk until the generation counter trips, and the one deferred sweep
  // then frees the whole batch via a single QuiescedHorizon() query.
  int live = 0;
  common::RetireList<CountedObject> list;
  constexpr uint64_t kGen = common::RetireList<CountedObject>::kSweepGeneration;
  for (uint64_t i = 1; i < kGen; ++i) {
    list.Retire(new CountedObject(&live));
    EXPECT_EQ(list.PendingForTest(), i) << "sweep ran before the generation filled";
  }
  EXPECT_EQ(live, static_cast<int>(kGen - 1));
  list.Retire(new CountedObject(&live));  // Generation boundary.
  EXPECT_EQ(list.PendingForTest(), 0u);
  EXPECT_EQ(live, 0);
}

TEST(EpochGc, PinnedReaderHoldsTheStormUntilQuiescence) {
  // A reader pinned across a storm of retirements: nothing it could still hold may
  // be freed, however many generation sweeps trip meanwhile; unpinning releases
  // the entire backlog on the next sweep.
  int live = 0;
  common::RetireList<CountedObject> list;
  constexpr int kStorm = 100;
  {
    common::EpochGc::ReadGuard pin(&common::EpochGc::Global());
    for (int i = 0; i < kStorm; ++i) {
      list.Retire(new CountedObject(&live));
    }
    // Generation sweeps ran but everything postdates the pin.
    EXPECT_EQ(live, kStorm);
    EXPECT_EQ(list.PendingForTest(), static_cast<size_t>(kStorm));
  }
  list.Sweep();
  EXPECT_EQ(list.PendingForTest(), 0u);
  EXPECT_EQ(live, 0);
}

TEST(EpochGc, DrainSpinsToFullQuiescence) {
  int live = 0;
  auto* list = new common::RetireList<CountedObject>();
  for (int i = 0; i < 3; ++i) {
    list->Retire(new CountedObject(&live));
  }
  list->Drain();
  EXPECT_EQ(live, 0);
  delete list;
}

// --- ServicePool: the one background executor -----------------------------------------

// One-shot latch: Wait() blocks until Open().
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ServicePool, DedupDropsASubmitOnlyWhileItsTwinIsQueued) {
  Gate blocker_running, release_blocker, twin_running, release_twin;
  std::atomic<int> runs{0};
  common::ServicePool pool("dedup", 1);
  // Occupy the only worker so key-2 jobs stay queued.
  pool.Submit(1, [&] {
    blocker_running.Open();
    release_blocker.Wait();
  });
  blocker_running.Wait();
  pool.Submit(2, [&] { runs.fetch_add(1); });
  pool.Submit(2, [&] { runs.fetch_add(1); });  // Absorbed.
  EXPECT_EQ(pool.QueueDepth(), 1u);
  release_blocker.Open();
  pool.Drain(2);
  EXPECT_EQ(runs.load(), 1);

  // A *running* twin absorbs nothing: it may have sampled state from before the
  // new submit, so the submit queues a fresh run.
  pool.Submit(3, [&] {
    runs.fetch_add(1);
    twin_running.Open();
    release_twin.Wait();
  });
  twin_running.Wait();
  pool.Submit(3, [&] { runs.fetch_add(1); });
  EXPECT_EQ(pool.QueueDepth(), 1u);
  release_twin.Open();
  pool.Drain(3);
  EXPECT_EQ(runs.load(), 3);
}

TEST(ServicePool, DrainWaitsForSelfSubmittedJobsButNotAnotherKey) {
  Gate other_running, release_other;
  std::atomic<bool> chained_done{false};
  common::ServicePool pool("drain", 2);
  // Key 1 holds one worker until the end of the test.
  pool.Submit(1, [&] {
    other_running.Open();
    release_other.Wait();
  });
  other_running.Wait();
  // Key 2's job submits a follow-up under its own key before it returns; the
  // follow-up finishes late enough that a drain ignoring it would be caught.
  pool.Submit(2, [&] {
    pool.Submit(2, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      chained_done.store(true);
    });
  });
  auto drained = std::async(std::launch::async, [&] { pool.Drain(2); });
  bool returned = drained.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "Drain(2) waited on key 1's blocked job";
  EXPECT_TRUE(chained_done.load());
  release_other.Open();
  drained.wait();
  pool.DrainAll();
}

TEST(ServicePool, OnWorkerThreadOnlyInsideThisPoolsOwnJob) {
  common::ServicePool a("a", 1);
  common::ServicePool b("b", 1);
  std::atomic<int> a_in_a{-1}, b_in_a{-1}, a_in_b{-1};
  a.Submit(1, [&] {
    a_in_a.store(a.OnWorkerThread());
    b_in_a.store(b.OnWorkerThread());
  });
  b.Submit(1, [&] { a_in_b.store(a.OnWorkerThread()); });
  a.Drain(1);
  b.Drain(1);
  EXPECT_EQ(a_in_a.load(), 1);
  EXPECT_EQ(b_in_a.load(), 0);  // Another pool's worker is not b's.
  EXPECT_EQ(a_in_b.load(), 0);
  EXPECT_FALSE(a.OnWorkerThread());  // The submitter.
  EXPECT_FALSE(b.OnWorkerThread());
}

}  // namespace
