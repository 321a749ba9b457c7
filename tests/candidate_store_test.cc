// Unit tests for the structure-of-arrays candidate store
// (session/candidate_store.h): the 64×64 bit-block transpose against a
// naive per-bit reference, the word-at-a-time sweep kernels against
// per-candidate loops, dense-axis compaction and the id↔dense remap, the
// row facility, and the versioned snapshot image (round-trips, header
// mismatches, truncation).
#include "session/candidate_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {
namespace {

TEST(TransposeTest, MatchesNaivePerBitTranspose) {
  // The canonical Hacker's Delight 7-3 loop assumes MSB-first element
  // numbering; under this codebase's LSB-first convention the unadapted
  // form computes the anti-diagonal transpose (i,j) → (63-j,63-i). This
  // test pins the convention: bit j of a[i] must land at bit i of a[j].
  common::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    uint64_t a[64];
    for (uint64_t& w : a) w = rng.Next();
    uint64_t expected[64] = {};
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        if (a[i] & (1ULL << j)) expected[j] |= 1ULL << i;
      }
    }
    Transpose64x64(a);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(a[i], expected[i]) << "trial " << trial << " row " << i;
    }
  }
}

TEST(TransposeTest, InvolutionAndIdentity) {
  common::Rng rng(7);
  uint64_t a[64], original[64];
  for (int i = 0; i < 64; ++i) original[i] = a[i] = rng.Next();
  Transpose64x64(a);
  Transpose64x64(a);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], original[i]);

  uint64_t identity[64];
  for (int i = 0; i < 64; ++i) identity[i] = 1ULL << i;
  Transpose64x64(identity);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(identity[i], 1ULL << i);
}

TEST(ForEachSetBitTest, VisitsAscendingAcrossWords) {
  const uint64_t words[3] = {(1ULL << 0) | (1ULL << 63), 0, (1ULL << 5)};
  std::vector<size_t> seen;
  ForEachSetBit(words, 3, [&](size_t d) { seen.push_back(d); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 128 + 5}));

  seen.clear();
  ForEachSetBit(words, 1, [&](size_t d) { seen.push_back(d); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63}));
}

/// A store over `n` candidates and `planes` planes with pseudorandom plane
/// bits (density ~1/2), mirrored into a candidate-major reference.
struct RandomStore {
  CandidateStore store;
  std::vector<std::vector<bool>> bits;  // bits[p][id]

  RandomStore(size_t planes, size_t n, uint64_t seed) {
    common::Rng rng(seed);
    store.Reset(planes, n);
    bits.assign(planes, std::vector<bool>(n, false));
    for (size_t p = 0; p < planes; ++p) {
      for (size_t id = 0; id < n; ++id) {
        if (rng.Next() & 1) {
          store.SetPlaneBit(p, id);
          bits[p][id] = true;
        }
      }
    }
    store.SealPlanes();
  }
};

TEST(CandidateStoreTest, AndPlanesMatchesPerCandidateLoop) {
  const size_t kPlanes = 7, kN = 130;
  RandomStore rs(kPlanes, kN, 11);
  const uint64_t mask = 0b1011001;

  std::vector<uint64_t> acc;
  rs.store.CopyOpen(&acc);
  rs.store.AndPlanes(0, mask, acc.data());

  for (size_t id = 0; id < kN; ++id) {
    bool expect = true;  // open ∧ AND of the masked planes
    for (size_t p = 0; p < kPlanes; ++p) {
      if ((mask >> p) & 1) expect = expect && rs.bits[p][id];
    }
    const bool got = (acc[id / 64] >> (id % 64)) & 1;
    ASSERT_EQ(got, expect) << "candidate " << id;
  }
  // Empty mask: AND over nothing leaves acc unchanged.
  std::vector<uint64_t> all_open;
  rs.store.CopyOpen(&all_open);
  rs.store.AndPlanes(0, 0, all_open.data());
  for (size_t w = 0; w < all_open.size(); ++w) {
    EXPECT_EQ(all_open[w], rs.store.open_words()[w]);
  }
}

TEST(CandidateStoreTest, AndNotOrPlanesMatchesPerCandidateLoop) {
  const size_t kPlanes = 9, kN = 100;
  RandomStore rs(kPlanes, kN, 13);
  const uint64_t mask = 0b101010101;

  std::vector<uint64_t> acc;
  rs.store.CopyOpen(&acc);
  rs.store.AndNotOrPlanes(0, mask, acc.data());

  for (size_t id = 0; id < kN; ++id) {
    bool any = false;  // survives iff it agrees on none of the masked planes
    for (size_t p = 0; p < kPlanes; ++p) {
      if (((mask >> p) & 1) && rs.bits[p][id]) any = true;
    }
    const bool got = (acc[id / 64] >> (id % 64)) & 1;
    ASSERT_EQ(got, !any) << "candidate " << id;
  }
}

TEST(CandidateStoreTest, PlanePopcountsMatchesPerCandidateLoop) {
  // 70 planes exercises all 7 ripple-carry slices (counts up to 64+).
  const size_t kPlanes = 70, kN = 200;
  RandomStore rs(kPlanes, kN, 17);
  // Mask covering planes [base, base+64) with base 3.
  const size_t base = 3;
  const uint64_t mask = ~0ULL >> 7;  // 57 planes

  std::vector<uint8_t> counts;
  rs.store.PlanePopcounts(base, mask, &counts);
  ASSERT_GE(counts.size(), kN);

  for (size_t id = 0; id < kN; ++id) {
    unsigned expect = 0;
    for (size_t b = 0; b < 64; ++b) {
      if (((mask >> b) & 1) && rs.bits[base + b][id]) ++expect;
    }
    ASSERT_EQ(counts[id], expect) << "candidate " << id;
  }
}

TEST(CandidateStoreTest, OpenActiveLifecycle) {
  CandidateStore store;
  store.Reset(2, 10);
  EXPECT_EQ(store.open_count(), 10u);
  EXPECT_TRUE(store.IsOpen(4));
  EXPECT_TRUE(store.IsActive(4));

  store.OnAsked(4);  // leaves the active set only
  EXPECT_FALSE(store.IsOpen(4));
  EXPECT_TRUE(store.IsActive(4));
  EXPECT_EQ(store.open_count(), 9u);

  store.OnSettled(4);
  EXPECT_FALSE(store.IsActive(4));
  store.OnSettled(4);  // idempotent
  EXPECT_EQ(store.open_count(), 9u);

  store.OnSettled(7);  // settle without asking (forced label)
  EXPECT_FALSE(store.IsOpen(7));
  EXPECT_FALSE(store.IsActive(7));
  EXPECT_EQ(store.open_count(), 8u);
}

TEST(CandidateStoreTest, CompactRemapsDenseAxisAndPlanes) {
  const size_t kPlanes = 3, kN = 150;
  RandomStore rs(kPlanes, kN, 19);
  // Settle every third candidate.
  for (size_t id = 0; id < kN; id += 3) rs.store.OnSettled(id);
  const size_t open_before = rs.store.open_count();

  rs.store.Compact();

  EXPECT_EQ(rs.store.dense_size(), open_before);
  EXPECT_EQ(rs.store.open_count(), open_before);
  size_t prev_id = 0;
  for (size_t d = 0; d < rs.store.dense_size(); ++d) {
    const size_t id = rs.store.IdOf(d);
    if (d > 0) {
      EXPECT_GT(id, prev_id);  // ascending-id order preserved
    }
    prev_id = id;
    EXPECT_NE(id % 3, 0u);
    EXPECT_EQ(rs.store.DenseOf(id), d);
    EXPECT_TRUE(rs.store.IsOpen(id));
    for (size_t p = 0; p < kPlanes; ++p) {
      EXPECT_EQ(rs.store.PlaneBitForTest(p, id), rs.bits[p][id] ? true : false)
          << "plane " << p << " id " << id;
    }
  }
  for (size_t id = 0; id < kN; id += 3) {
    EXPECT_EQ(rs.store.DenseOf(id), CandidateStore::kNoDense);
    EXPECT_FALSE(rs.store.IsOpen(id));
    // Settling a compacted-away candidate stays a harmless no-op.
    rs.store.OnSettled(id);
  }
}

TEST(CandidateStoreTest, MaybeCompactPolicy) {
  CandidateStore store;
  store.Reset(1, 300);
  // Below the half-settled threshold: no compaction.
  for (size_t id = 0; id < 100; ++id) store.OnSettled(id);
  EXPECT_FALSE(store.MaybeCompact());
  EXPECT_EQ(store.dense_size(), 300u);
  // Cross it.
  for (size_t id = 100; id < 160; ++id) store.OnSettled(id);
  EXPECT_TRUE(store.MaybeCompact());
  EXPECT_EQ(store.dense_size(), 140u);

  // A store with rows pins the dense axis and never compacts.
  CandidateStore pinned;
  pinned.Reset(4, 300);
  pinned.ConfigureRows(4);
  for (size_t id = 0; id < 299; ++id) pinned.OnSettled(id);
  EXPECT_FALSE(pinned.MaybeCompact());
  EXPECT_EQ(pinned.dense_size(), 300u);

  // Tiny stores are not worth remapping.
  CandidateStore tiny;
  tiny.Reset(1, 20);
  for (size_t id = 0; id < 19; ++id) tiny.OnSettled(id);
  EXPECT_FALSE(tiny.MaybeCompact());
}

TEST(CandidateStoreTest, RowsLifecycleAndKernels) {
  CandidateStore store;
  store.Reset(130, 5);
  store.ConfigureRows(130);
  EXPECT_TRUE(store.has_rows());
  EXPECT_EQ(store.row_words(), 3u);
  EXPECT_FALSE(store.RowFresh(2));

  uint64_t* row = store.BeginRow(2);
  row[0] = (1ULL << 3) | (1ULL << 40);
  row[2] = 1ULL << 1;  // node 129
  EXPECT_TRUE(store.RowFresh(2));
  EXPECT_TRUE(store.RowPresent(2));

  store.MarkRowAbsent(3);
  EXPECT_TRUE(store.RowFresh(3));
  EXPECT_FALSE(store.RowPresent(3));

  std::vector<uint64_t> other(store.row_words(), 0);
  other[0] = 1ULL << 40;
  other[2] = 1ULL << 1;
  EXPECT_EQ(store.PopcountRowAnd(2, other.data()), 2u);
  EXPECT_TRUE(store.RowIntersects(2, other.data()));
  other[0] = 0;
  other[2] = 0;
  EXPECT_FALSE(store.RowIntersects(2, other.data()));

  store.InvalidateRows();  // O(1) epoch bump stales everything
  EXPECT_FALSE(store.RowFresh(2));
  EXPECT_FALSE(store.RowFresh(3));
}

TEST(CandidateStoreTest, TransposeActiveRowsToPlanesMatchesRows) {
  const size_t kNodes = 130, kN = 70;
  CandidateStore store;
  store.Reset(kNodes, kN);
  store.ConfigureRows(kNodes);
  common::Rng rng(23);
  std::vector<std::vector<bool>> selected(kN, std::vector<bool>(kNodes));
  for (size_t id = 0; id < kN; ++id) {
    uint64_t* row = store.BeginRow(id);
    for (size_t u = 0; u < kNodes; ++u) {
      if (rng.Next() & 1) {
        row[u / 64] |= 1ULL << (u % 64);
        selected[id][u] = true;
      }
    }
  }
  // Deactivate a few candidates; their bits must not reach the planes.
  store.OnSettled(10);
  store.OnSettled(64);

  store.TransposeActiveRowsToPlanes();

  for (size_t u = 0; u < kNodes; ++u) {
    for (size_t id = 0; id < kN; ++id) {
      const bool expect = store.IsActive(id) && selected[id][u];
      ASSERT_EQ(store.PlaneBitForTest(u, id), expect)
          << "plane " << u << " candidate " << id;
    }
  }
}

TEST(CandidateStoreSnapshotTest, RoundTripPreservesState) {
  const size_t kPlanes = 5, kN = 90;
  RandomStore rs(kPlanes, kN, 29);
  rs.store.OnAsked(1);
  for (size_t id = 0; id < kN; id += 2) rs.store.OnSettled(id);
  rs.store.MaybeCompact();

  SnapshotWriter writer;
  rs.store.SerializeSnapshot(&writer);
  const std::string image = writer.bytes();

  // The image carries no planes: a store built over the same planes
  // gathers them from its sealed source through the restored dense map.
  CandidateStore restored = RandomStore(kPlanes, kN, 29).store;
  SnapshotReader reader(image);
  ASSERT_TRUE(restored.RestoreSnapshot(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(restored.dense_size(), rs.store.dense_size());
  EXPECT_EQ(restored.open_count(), rs.store.open_count());
  for (size_t id = 0; id < kN; ++id) {
    EXPECT_EQ(restored.DenseOf(id), rs.store.DenseOf(id));
    EXPECT_EQ(restored.IsOpen(id), rs.store.IsOpen(id));
    EXPECT_EQ(restored.IsActive(id), rs.store.IsActive(id));
    if (rs.store.DenseOf(id) == CandidateStore::kNoDense) continue;
    for (size_t p = 0; p < kPlanes; ++p) {
      EXPECT_EQ(restored.PlaneBitForTest(p, id),
                rs.store.PlaneBitForTest(p, id));
    }
  }
  for (size_t d = 0; d < restored.dense_size(); ++d) {
    EXPECT_EQ(restored.IdOf(d), rs.store.IdOf(d));
  }
}

TEST(CandidateStoreSnapshotTest, RestoreGathersPlanesIntoACompactedAxis) {
  const size_t kPlanes = 6, kN = 300;
  RandomStore rs(kPlanes, kN, 31);
  for (size_t id = 0; id < kN; ++id) {
    if (id % 3 != 1) rs.store.OnSettled(id);
  }
  rs.store.Compact();
  ASSERT_EQ(rs.store.dense_size(), kN / 3);

  SnapshotWriter writer;
  rs.store.SerializeSnapshot(&writer);
  CandidateStore restored = RandomStore(kPlanes, kN, 31).store;
  SnapshotReader reader(writer.bytes());
  ASSERT_TRUE(restored.RestoreSnapshot(&reader).ok());
  ASSERT_EQ(restored.dense_size(), kN / 3);
  for (size_t id = 1; id < kN; id += 3) {
    for (size_t p = 0; p < kPlanes; ++p) {
      ASSERT_EQ(restored.PlaneBitForTest(p, id), rs.bits[p][id])
          << "plane " << p << " candidate " << id;
    }
  }
  // The gathered planes drive the sweeps exactly like the originals.
  std::vector<uint64_t> original, gathered;
  rs.store.CopyOpen(&original);
  restored.CopyOpen(&gathered);
  rs.store.AndPlanes(0, 0b101101, original.data());
  restored.AndPlanes(0, 0b101101, gathered.data());
  EXPECT_EQ(gathered, original);
}

TEST(CandidateStoreSnapshotTest, RoundTripFreshAndConvergedStores) {
  // Fresh store: nothing settled yet.
  {
    CandidateStore store;
    store.Reset(3, 40);
    SnapshotWriter writer;
    store.SerializeSnapshot(&writer);
    CandidateStore restored;
    restored.Reset(3, 40);
    SnapshotReader reader(writer.bytes());
    ASSERT_TRUE(restored.RestoreSnapshot(&reader).ok());
    EXPECT_EQ(restored.open_count(), 40u);
  }
  // Converged store: everything settled and compacted to nothing.
  {
    CandidateStore store;
    store.Reset(3, 200);
    for (size_t id = 0; id < 200; ++id) store.OnSettled(id);
    store.Compact();
    EXPECT_EQ(store.dense_size(), 0u);
    SnapshotWriter writer;
    store.SerializeSnapshot(&writer);
    CandidateStore restored;
    restored.Reset(3, 200);
    SnapshotReader reader(writer.bytes());
    ASSERT_TRUE(restored.RestoreSnapshot(&reader).ok());
    EXPECT_EQ(restored.dense_size(), 0u);
    EXPECT_EQ(restored.open_count(), 0u);
    EXPECT_EQ(restored.DenseOf(123), CandidateStore::kNoDense);
  }
}

TEST(CandidateStoreSnapshotTest, RejectsMismatchedGeometry) {
  CandidateStore store;
  store.Reset(4, 50);
  SnapshotWriter writer;
  store.SerializeSnapshot(&writer);
  const std::string image = writer.bytes();

  {
    // Wrong plane count.
    CandidateStore other;
    other.Reset(5, 50);
    SnapshotReader reader(image);
    const common::Status s = other.RestoreSnapshot(&reader);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
  {
    // Wrong capacity.
    CandidateStore other;
    other.Reset(4, 51);
    SnapshotReader reader(image);
    const common::Status s = other.RestoreSnapshot(&reader);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
  {
    // Wrong row geometry.
    CandidateStore other;
    other.Reset(4, 50);
    other.ConfigureRows(4);
    SnapshotReader reader(image);
    const common::Status s = other.RestoreSnapshot(&reader);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
  {
    // Foreign magic.
    std::string bad = image;
    bad[0] = 'X';
    CandidateStore other;
    other.Reset(4, 50);
    SnapshotReader reader(bad);
    const common::Status s = other.RestoreSnapshot(&reader);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
  {
    // Unsupported version.
    std::string bad = image;
    bad[4] = static_cast<char>(0x7f);
    CandidateStore other;
    other.Reset(4, 50);
    SnapshotReader reader(bad);
    const common::Status s = other.RestoreSnapshot(&reader);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(CandidateStoreSnapshotTest, RejectsTruncationAtEveryPrefix) {
  CandidateStore store;
  store.Reset(2, 70);
  store.SetPlaneBit(0, 3);
  store.OnSettled(5);
  SnapshotWriter writer;
  store.SerializeSnapshot(&writer);
  const std::string image = writer.bytes();

  for (size_t len = 0; len < image.size(); ++len) {
    CandidateStore restored;
    restored.Reset(2, 70);
    SnapshotReader reader(std::string_view(image.data(), len));
    const common::Status s = restored.RestoreSnapshot(&reader);
    ASSERT_FALSE(s.ok()) << "prefix length " << len;
    ASSERT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
}

// Byte offsets into a QLCS image: the fixed header, then the dense-map
// bitmap (capacity bits), then the open and active words (dense extent).
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8 + 8 + 8;

size_t OpenWordOffset(size_t capacity, size_t w) {
  return kHeaderBytes + 8 * ((capacity + 63) / 64) + 8 * w;
}

void OrByte(std::string* image, size_t offset, uint8_t bits) {
  (*image)[offset] = static_cast<char>(static_cast<uint8_t>((*image)[offset]) |
                                       bits);
}

common::Status RestoreForged(const std::string& image, size_t planes,
                             size_t capacity) {
  CandidateStore restored;
  restored.Reset(planes, capacity);
  SnapshotReader reader(image);
  return restored.RestoreSnapshot(&reader);
}

TEST(CandidateStoreSnapshotTest, ImageCarriesNoPlanes) {
  // 3 planes over 100 candidates: header + 2 bitmap words + 2 open words +
  // 2 active words, whatever the planes hold.
  RandomStore rs(3, 100, 5);
  SnapshotWriter writer;
  rs.store.SerializeSnapshot(&writer);
  EXPECT_EQ(writer.bytes().size(), kHeaderBytes + 6 * 8);
}

TEST(CandidateStoreSnapshotTest, RejectsBitsPastTheDenseExtent) {
  // 100 candidates: the last open/active word covers slots 64..127, and
  // slots 100..127 lie past the dense extent. A bit there would send a
  // sweep past the end of the dense map.
  CandidateStore store;
  store.Reset(2, 100);
  SnapshotWriter writer;
  store.SerializeSnapshot(&writer);
  const size_t n = 2;
  for (size_t which = 0; which < 2; ++which) {  // open, then active
    std::string bad = writer.bytes();
    // Byte 4 of the last word holds slots 96..103: set slot 100 (bit 4).
    OrByte(&bad, OpenWordOffset(100, which * n + 1) + 4, 0x10);
    const common::Status s = RestoreForged(bad, 2, 100);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << which;
    EXPECT_NE(s.message().find("dense extent"), std::string::npos)
        << s.message();
  }
}

TEST(CandidateStoreSnapshotTest, RejectsOpenOutsideActive) {
  CandidateStore store;
  store.Reset(2, 100);
  store.OnSettled(3);  // neither open nor active
  SnapshotWriter writer;
  store.SerializeSnapshot(&writer);
  std::string bad = writer.bytes();
  OrByte(&bad, OpenWordOffset(100, 0), 0x08);  // reopen slot 3
  const common::Status s = RestoreForged(bad, 2, 100);
  EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("outside the active set"), std::string::npos)
      << s.message();
}

TEST(CandidateStoreSnapshotTest, RejectsInconsistentDenseMap) {
  CandidateStore store;
  store.Reset(2, 200);
  for (size_t id = 0; id < 150; ++id) store.OnSettled(id);
  store.Compact();  // dense extent 50: ids 150..199
  SnapshotWriter writer;
  store.SerializeSnapshot(&writer);
  {
    // One id too many on the dense axis.
    std::string bad = writer.bytes();
    OrByte(&bad, kHeaderBytes, 0x01);
    const common::Status s = RestoreForged(bad, 2, 200);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
  }
  {
    // An id at or past capacity (bit 200 lives in bitmap word 3).
    std::string bad = writer.bytes();
    OrByte(&bad, kHeaderBytes + 3 * 8 + 1, 0x01);
    const common::Status s = RestoreForged(bad, 2, 200);
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("past capacity"), std::string::npos)
        << s.message();
  }
}

}  // namespace
}  // namespace session
}  // namespace qlearn
