/// Tests for the snapshot persistence subsystem (src/persist/): the
/// save → load → save byte-identity property (scaled by
/// ATCD_FUZZ_ITERS), warm restarts serving cache hits for repeated and
/// isomorphic-permuted submissions, typed rejection of truncated,
/// bit-flipped, and version-bumped images (never a crash, never a
/// partially populated cache), atomic write-to-temp-then-rename saves,
/// and budget enforcement on load (an over-budget image evicts its
/// least-recent entries instead of talking the cache out of its
/// configured limits), and rejection of CRC-valid images whose subtree
/// witnesses are not exactly as wide as their subtree has leaves.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "persist/snapshot.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "service/subtree_cache.hpp"

namespace atcd {
namespace {

using engine::Problem;
using persist::LoadStatus;
using persist::SnapshotInfo;
using service::ResultCache;
using service::SolveService;
using service::SubtreeCache;

std::size_t fuzz_iters(std::size_t dflt) {
  if (const char* env = std::getenv("ATCD_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return dflt;
}

/// A family of small distinct models: the (i % 7, i / 7) cost pair is
/// unique for i < 49, so every index has its own canonical hash.
std::string model_text(unsigned i) {
  std::ostringstream o;
  o << "bas a cost=" << (1 + i % 7) << " damage=2\n"
    << "bas b cost=" << (2 + i % 5) << " damage=1\n"
    << "bas c cost=" << (3 + i / 7) << "\n"
    << "and g = a, b\n"
    << "or root = g, c damage=" << (5 + i % 3) << "\n";
  return o.str();
}

/// The same model as model_text(i) with every node renamed and the
/// statements and child lists reordered — isomorphic, so it must hash
/// to the same canonical key.
std::string permuted_model_text(unsigned i) {
  std::ostringstream o;
  o << "bas z1 cost=" << (2 + i % 5) << " damage=1\n"
    << "bas z2 cost=" << (3 + i / 7) << "\n"
    << "bas z0 cost=" << (1 + i % 7) << " damage=2\n"
    << "and h = z1, z0\n"
    << "or top = z2, h damage=" << (5 + i % 3) << "\n";
  return o.str();
}

/// Solves `count` distinct models so both caches hold real entries
/// (fronts, witnesses, canonical keys).
void fill(SolveService& svc, unsigned count, unsigned salt = 0) {
  for (unsigned i = 0; i < count; ++i) {
    const auto resp = svc.handle(
        service::Request::of_text(Problem::Cdpf, model_text(salt + i)));
    ASSERT_TRUE(resp.result.ok) << resp.result.error;
  }
}

SolveService::Options single_shard_options() {
  SolveService::Options opt;
  opt.cache.shards = 1;
  opt.subtree.shards = 1;
  return opt;
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + std::to_string(::getpid()) + ".atcd";
}

// ---------------------------------------------------------------------------
// Round-trip property: save -> load -> save is byte-identical.
// ---------------------------------------------------------------------------

TEST(Persist, SaveLoadSaveByteIdentical) {
  const std::size_t iters = fuzz_iters(8);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    SolveService svc(single_shard_options());
    fill(svc, 3 + iter % 6, static_cast<unsigned>(iter * 7) % 40);

    SnapshotInfo info1;
    const std::string img1 =
        persist::encode_snapshot(svc.cache(), svc.subtree_cache(), &info1);
    EXPECT_EQ(info1.bytes, img1.size());
    EXPECT_GT(info1.result_entries, 0u);

    ResultCache::Config rcfg;
    rcfg.shards = 1;
    SubtreeCache::Config scfg;
    scfg.shards = 1;
    ResultCache rc(rcfg);
    SubtreeCache sc(scfg);
    SnapshotInfo info2;
    std::string err;
    ASSERT_EQ(persist::decode_snapshot(img1, &rc, &sc, &info2, &err),
              LoadStatus::Ok)
        << err;
    EXPECT_EQ(info2.result_entries, info1.result_entries);
    EXPECT_EQ(info2.subtree_entries, info1.subtree_entries);

    const std::string img2 = persist::encode_snapshot(rc, sc);
    EXPECT_EQ(img1, img2) << "iteration " << iter;
  }
}

TEST(Persist, EmptyCachesRoundTrip) {
  SolveService svc;
  SnapshotInfo info;
  const std::string img =
      persist::encode_snapshot(svc.cache(), svc.subtree_cache(), &info);
  EXPECT_EQ(info.result_entries, 0u);
  EXPECT_EQ(info.subtree_entries, 0u);

  ResultCache rc;
  SubtreeCache sc;
  ASSERT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Ok);
  EXPECT_EQ(persist::encode_snapshot(rc, sc), img);
}

TEST(Persist, NullCachePointersValidateWithoutRestoring) {
  SolveService svc(single_shard_options());
  fill(svc, 4);
  const std::string img =
      persist::encode_snapshot(svc.cache(), svc.subtree_cache());
  SnapshotInfo info;
  ASSERT_EQ(persist::decode_snapshot(img, nullptr, nullptr, &info),
            LoadStatus::Ok);
  EXPECT_EQ(info.result_entries, 4u);
}

// ---------------------------------------------------------------------------
// Warm restart through files.
// ---------------------------------------------------------------------------

TEST(Persist, FileRoundTripServesWarmHits) {
  const std::string path = temp_path("persist_warm_");
  {
    SolveService svc(single_shard_options());
    fill(svc, 5);
    SnapshotInfo info;
    std::string err;
    ASSERT_TRUE(persist::save_snapshot(path, svc.cache(),
                                       svc.subtree_cache(), &info, &err))
        << err;
    EXPECT_EQ(info.result_entries, 5u);
    // Atomic save: the temp file must not survive a successful rename.
    struct stat st;
    EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(static_cast<std::size_t>(st.st_size), info.bytes);
  }

  SolveService fresh(single_shard_options());
  std::string err;
  ASSERT_EQ(persist::load_snapshot(path, &fresh.cache(),
                                   &fresh.subtree_cache(), nullptr, &err),
            LoadStatus::Ok)
      << err;

  // Every model solved before the restart is a hit now — including an
  // isomorphic renamed/reordered resubmission (canonical keys persist).
  for (unsigned i = 0; i < 5; ++i) {
    const auto same = fresh.handle(
        service::Request::of_text(Problem::Cdpf, model_text(i)));
    ASSERT_TRUE(same.result.ok);
    EXPECT_TRUE(same.cache_hit) << "model " << i;
    const auto iso = fresh.handle(
        service::Request::of_text(Problem::Cdpf, permuted_model_text(i)));
    ASSERT_TRUE(iso.result.ok);
    EXPECT_TRUE(iso.cache_hit) << "permuted model " << i;
  }
  ::unlink(path.c_str());
}

TEST(Persist, MissingFileIsIoError) {
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  EXPECT_EQ(persist::load_snapshot("/nonexistent/dir/none.atcd", &rc, &sc,
                                   nullptr, &err),
            LoadStatus::IoError);
  EXPECT_FALSE(err.empty());
}

TEST(Persist, UnwritablePathFailsSaveWithError) {
  SolveService svc;
  std::string err;
  EXPECT_FALSE(persist::save_snapshot("/nonexistent/dir/none.atcd",
                                      svc.cache(), svc.subtree_cache(),
                                      nullptr, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Corruption: typed errors, never a crash, never a partial restore.
// ---------------------------------------------------------------------------

std::string valid_image() {
  SolveService svc(single_shard_options());
  fill(svc, 5);
  return persist::encode_snapshot(svc.cache(), svc.subtree_cache());
}

/// Decoding a damaged image must fail with a typed status and leave
/// the target caches exactly as they were (here: empty).
void expect_rejected(const std::string& bytes) {
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  const LoadStatus status =
      persist::decode_snapshot(bytes, &rc, &sc, nullptr, &err);
  EXPECT_NE(status, LoadStatus::Ok);
  EXPECT_FALSE(err.empty());
  EXPECT_STRNE(persist::to_string(status), "ok");
  EXPECT_EQ(rc.stats().entries, 0u);
  EXPECT_EQ(rc.stats().insertions, 0u);
  EXPECT_EQ(sc.stats().entries, 0u);
  EXPECT_EQ(sc.stats().insertions, 0u);
}

TEST(Persist, TruncationIsTypedAndAtomic) {
  const std::string img = valid_image();
  const std::size_t cuts[] = {0,  4,  8,  12,           15,
                              16, 24, 40, img.size() / 4, img.size() / 2,
                              img.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, img.size());
    expect_rejected(img.substr(0, cut));
  }
}

TEST(Persist, BitFlipFuzzIsTypedAndAtomic) {
  const std::string img = valid_image();
  const std::size_t iters = fuzz_iters(32);
  std::mt19937 rng(20230808);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    std::string bad = img;
    const std::size_t byte = rng() % bad.size();
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << (rng() % 8)));
    expect_rejected(bad);
  }
}

TEST(Persist, VersionBumpIsRejected) {
  std::string img = valid_image();
  // u32 format version lives at bytes 8..12 (little-endian).
  img[8] = static_cast<char>(img[8] + 1);
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc, nullptr, &err),
            LoadStatus::BadVersion);
  EXPECT_NE(err.find("format v"), std::string::npos);
  EXPECT_EQ(rc.stats().entries, 0u);
}

TEST(Persist, BadMagicIsRejected) {
  std::string img = valid_image();
  img[0] = 'X';
  expect_rejected(img);
  expect_rejected("not a snapshot at all");
}

TEST(Persist, UnknownSectionTagIsCorrupt) {
  std::string img = valid_image();
  // First section tag sits right after the 16-byte header.
  img[16] = static_cast<char>(img[16] ^ 0x40);
  ResultCache rc;
  SubtreeCache sc;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Corrupt);
  EXPECT_EQ(rc.stats().entries, 0u);
}

TEST(Persist, TrailingBytesAreCorrupt) {
  std::string img = valid_image();
  img += "extra";
  ResultCache rc;
  SubtreeCache sc;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Corrupt);
  EXPECT_EQ(rc.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Budgets: a load can never talk a cache out of its configured limits.
// ---------------------------------------------------------------------------

TEST(Persist, OverBudgetLoadEvictsLeastRecentEntries) {
  // Source: 10 entries, single shard so the image's LRU->MRU order is
  // the global recency order.
  SolveService src(single_shard_options());
  fill(src, 10);
  const std::string img =
      persist::encode_snapshot(src.cache(), src.subtree_cache());

  // Target: same caches, much smaller entry budgets.
  SolveService::Options small = single_shard_options();
  small.cache.max_entries = 3;
  small.subtree.max_entries = 4;
  SolveService dst(small);
  std::string err;
  ASSERT_EQ(persist::decode_snapshot(img, &dst.cache(), &dst.subtree_cache(),
                                     nullptr, &err),
            LoadStatus::Ok)
      << err;

  // Budgets hold: the replay inserted 10 and evicted down to 3.
  EXPECT_LE(dst.cache().stats().entries, 3u);
  EXPECT_EQ(dst.cache().stats().insertions, 10u);
  EXPECT_GE(dst.cache().stats().evictions, 7u);
  EXPECT_LE(dst.subtree_cache().stats().entries, 4u);

  // The *most recent* entries survived: the last model solved before
  // the snapshot hits, the first misses.
  const auto newest =
      dst.handle(service::Request::of_text(Problem::Cdpf, model_text(9)));
  EXPECT_TRUE(newest.cache_hit);
  const auto oldest =
      dst.handle(service::Request::of_text(Problem::Cdpf, model_text(0)));
  EXPECT_FALSE(oldest.cache_hit);
}

/// Byte bookkeeping is recomputed by the receiving cache, never read
/// from the image: a restored cache reports exactly the bytes of the
/// entries it holds (no double count between the two sections, no
/// stale source-side accounting).
TEST(Persist, RestoredByteAccountingMatchesSource) {
  SolveService src(single_shard_options());
  fill(src, 6);
  const std::string img =
      persist::encode_snapshot(src.cache(), src.subtree_cache());

  SolveService dst(single_shard_options());
  ASSERT_EQ(persist::decode_snapshot(img, &dst.cache(), &dst.subtree_cache()),
            LoadStatus::Ok);
  EXPECT_EQ(dst.cache().stats().bytes, src.cache().stats().bytes);
  EXPECT_EQ(dst.cache().stats().entries, src.cache().stats().entries);
  // Subtree fronts charge column capacity; stores and the decoder both
  // size columns exactly, so the restored cache charges the same bytes.
  EXPECT_EQ(dst.subtree_cache().stats().bytes,
            src.subtree_cache().stats().bytes);
  EXPECT_GT(dst.subtree_cache().stats().bytes, 0u);
  EXPECT_EQ(dst.subtree_cache().stats().entries,
            src.subtree_cache().stats().entries);
  EXPECT_GT(dst.cache().stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// Witness widths: a CRC-valid image must still describe well-formed fronts.
// ---------------------------------------------------------------------------

void append_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_u64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_f64(std::string* out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// A v1 image whose subtree section is built by hand, with a correct
/// CRC, from \p entries; header and (empty) result section come from a
/// real image of empty caches.  Point r of entry e gets a witness
/// \p width(e, r, leaves) bits wide: its real words, zero-extended, plus
/// the first bit past the subtree's leaves when the width exceeds them.
std::string hand_built_image(
    const std::vector<SubtreeCache::ExportedEntry>& entries,
    const std::function<std::size_t(std::size_t, std::size_t, std::size_t)>&
        width) {
  std::string payload;
  append_u64(&payload, entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    const TripleBuf& f = entry.front->buf;
    const std::size_t leaves = entry.front->nbits;
    append_u64(&payload, entry.hash);
    append_f64(&payload, entry.budget);
    append_u64(&payload, entry.sig->size());
    payload += *entry.sig;
    append_u64(&payload, f.size());
    for (std::size_t r = 0; r < f.size(); ++r) {
      append_f64(&payload, f.cost[r]);
      append_f64(&payload, f.damage[r]);
      append_f64(&payload, f.act[r]);
      const std::size_t nbits = width(e, r, leaves);
      std::vector<std::uint64_t> words((nbits + 63) / 64, 0);
      for (std::size_t k = 0; k < f.wpa() && k < words.size(); ++k)
        words[k] = f.witness(r)[k];
      if (nbits > leaves)
        words[leaves / 64] |= std::uint64_t{1} << (leaves % 64);
      append_u64(&payload, nbits);
      for (const std::uint64_t w : words) append_u64(&payload, w);
    }
  }
  // The empty image ends with the subtree section: tag, size, CRC and
  // an 8-byte entry count.
  std::string image =
      persist::encode_snapshot(ResultCache{}, SubtreeCache{});
  image.resize(image.size() - (16 + 8));
  image += "SC01";
  append_u64(&image, payload.size());
  append_u32(&image, persist::crc32(payload.data(), payload.size()));
  return image + payload;
}

TEST(Persist, SubtreeWitnessWiderThanItsSubtreeIsCorrupt) {
  SolveService src(single_shard_options());
  fill(src, 4);
  const auto entries = src.subtree_cache().export_entries();
  ASSERT_GE(entries.size(), 2u);

  // Control: the hand encoder reproduces the real image byte for byte,
  // and that image restores every entry.
  const auto exact = [](std::size_t, std::size_t, std::size_t leaves) {
    return leaves;
  };
  const std::string good = hand_built_image(entries, exact);
  EXPECT_EQ(good,
            persist::encode_snapshot(ResultCache{}, src.subtree_cache()));
  {
    SubtreeCache sc;
    ASSERT_EQ(persist::decode_snapshot(good, nullptr, &sc), LoadStatus::Ok);
    EXPECT_EQ(sc.stats().entries, entries.size());
  }

  // One witness 64 bits too wide, with a bit set past the leaves: a hit
  // would index the host's leaf table out of range.
  const std::string wide = hand_built_image(
      entries, [](std::size_t e, std::size_t r, std::size_t leaves) {
        return e == 0 && r == 0 ? leaves + 64 : leaves;
      });
  expect_rejected(wide);
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  EXPECT_EQ(persist::decode_snapshot(wide, &rc, &sc, nullptr, &err),
            LoadStatus::Corrupt);
  EXPECT_NE(err.find("leaf count"), std::string::npos) << err;

  // Mixed widths inside one front: only the last point of the last
  // entry is one bit wider.  Nothing is restored, not even the entries
  // decoded before it.
  const std::size_t last = entries.size() - 1;
  const std::size_t last_row = entries[last].front->buf.size() - 1;
  expect_rejected(hand_built_image(
      entries, [&](std::size_t e, std::size_t r, std::size_t leaves) {
        return e == last && r == last_row ? leaves + 1 : leaves;
      }));
}

}  // namespace
}  // namespace atcd
