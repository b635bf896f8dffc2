#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/rand.h"
#include "common/stable_buffer.h"
#include "common/stats.h"

namespace bohm {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZeroSeedStillWorks) {
  Rng rng(0);
  uint64_t v = rng.Next();
  EXPECT_NE(v, 0u);
}

// ---------- Hash ----------

TEST(HashTest, DenseKeysScatter) {
  // Dense integer keys must not all land in the same low bits.
  std::set<uint64_t> buckets;
  for (uint64_t k = 0; k < 256; ++k) buckets.insert(HashKey(k) & 63);
  EXPECT_GT(buckets.size(), 48u);
}

TEST(HashTest, Deterministic) { EXPECT_EQ(HashKey(42), HashKey(42)); }

TEST(HashTest, TableDisambiguates) {
  EXPECT_NE(HashTableKey(0, 5), HashTableKey(1, 5));
}

TEST(HashTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

// ---------- Arena ----------

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena(256);
  char* a = static_cast<char*>(arena.Allocate(100));
  char* b = static_cast<char*>(arena.Allocate(100));
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  EXPECT_EQ(static_cast<unsigned char>(a[99]), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xBB);
}

TEST(ArenaTest, AlignmentHonored) {
  Arena arena;
  (void)arena.Allocate(1);
  void* p = arena.Allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(ArenaTest, OversizedAllocationGetsOwnBlock) {
  Arena arena(128);
  void* p = arena.Allocate(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 4096);  // must be fully usable
  EXPECT_GE(arena.allocated_bytes(), 4096u);
}

TEST(ArenaTest, ResetReclaims) {
  Arena arena(128);
  for (int i = 0; i < 100; ++i) (void)arena.Allocate(64);
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  void* p = arena.Allocate(16);
  EXPECT_NE(p, nullptr);
}

TEST(ArenaTest, NewConstructsInPlace) {
  struct Pod {
    int x;
    int y;
  };
  Arena arena;
  Pod* p = arena.New<Pod>();
  p->x = 1;
  p->y = 2;
  EXPECT_EQ(p->x + p->y, 3);
}

// ---------- StableBuffer ----------

TEST(StableBufferTest, PointersSurviveGrowth) {
  StableBuffer buf(64);
  char* first = static_cast<char*>(buf.Allocate(32));
  std::memset(first, 0x5A, 32);
  for (int i = 0; i < 100; ++i) (void)buf.Allocate(48);
  EXPECT_EQ(static_cast<unsigned char>(first[31]), 0x5A);
}

TEST(StableBufferTest, ResetReusesChunks) {
  StableBuffer buf(64);
  for (int i = 0; i < 10; ++i) (void)buf.Allocate(40);
  size_t chunks = buf.chunk_count();
  buf.Reset();
  for (int i = 0; i < 10; ++i) (void)buf.Allocate(40);
  EXPECT_EQ(buf.chunk_count(), chunks);
}

TEST(StableBufferTest, LargeAllocation) {
  StableBuffer buf(64);
  void* p = buf.Allocate(10000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 10000);
}

TEST(StableBufferTest, AllocationsAligned) {
  StableBuffer buf;
  (void)buf.Allocate(3);
  void* p = buf.Allocate(8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
}

// ---------- Stats ----------

TEST(StatsTest, FoldSumsSlices) {
  StatsRegistry reg(3);
  reg.Slice(0).commits.Inc(5);
  reg.Slice(1).commits.Inc(7);
  reg.Slice(2).cc_aborts.Inc(2);
  StatsSnapshot s = reg.Fold();
  EXPECT_EQ(s.commits, 12u);
  EXPECT_EQ(s.cc_aborts, 2u);
}

TEST(StatsTest, AbortRate) {
  StatsSnapshot s;
  s.commits = 75;
  s.cc_aborts = 25;
  EXPECT_DOUBLE_EQ(s.AbortRate(), 0.25);
}

TEST(StatsTest, AbortRateZeroAttempts) {
  StatsSnapshot s;
  EXPECT_DOUBLE_EQ(s.AbortRate(), 0.0);
}

TEST(StatsTest, ResetClears) {
  StatsRegistry reg(2);
  reg.Slice(0).commits.Inc(5);
  reg.Reset();
  EXPECT_EQ(reg.Fold().commits, 0u);
}

TEST(StatsTest, ToStringMentionsFields) {
  StatsSnapshot s;
  s.commits = 3;
  EXPECT_NE(s.ToString().find("commits=3"), std::string::npos);
}

}  // namespace
}  // namespace bohm
