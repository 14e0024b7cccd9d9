// Live ingestion over the wire: mutation frames (Insert/Delete/Merge)
// and the statistics deltas their acknowledgements carry, ShardServer
// live nodes, RemoteClusterIndex url-hash routing with replica
// agreement, and the end-to-end exactness contract — the statistics
// the coordinator maintains from the deltas equal a fresh handshake's
// after every acknowledgement, and a remote query after mutations is
// bit-identical to manually rebuilding each shard's live documents
// from scratch and running the in-process shard evaluation + merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "ir/tokenizer.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "net/wire.h"

namespace dls::net {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Seed of the randomized schedules, from DLS_FAULT_SEED like the
/// replica fault suite (ci/check.sh runs this suite once per seed).
uint64_t FaultSeed() {
  const char* env = std::getenv("DLS_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

/// A document's distinct stems (ascending) and its length under the
/// default pipeline — what its statistics delta must carry.
std::pair<std::vector<std::string>, int64_t> DeltaOf(const std::string& text) {
  std::set<std::string> stems;
  int64_t length = 0;
  for (const std::string& token : ir::Tokenize(text)) {
    std::optional<std::string> stem = ir::NormalizeWordAs(token, true, true);
    if (!stem) continue;
    stems.insert(*stem);
    ++length;
  }
  return {std::vector<std::string>(stems.begin(), stems.end()), length};
}

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// An InsertResponse body (node 2, doc 17, epoch 9) with a hand-built
/// statistics delta, so malformed deltas can be fed to the decoder.
std::vector<uint8_t> InsertBodyWithDelta(
    uint64_t length, uint64_t count, const std::vector<std::string>& stems) {
  std::vector<uint8_t> body = {2, 17, 9};
  PutVarint(length, &body);
  PutVarint(count, &body);
  for (const std::string& stem : stems) {
    PutVarint(stem.size(), &body);
    body.insert(body.end(), stem.begin(), stem.end());
  }
  return body;
}

StatusCode InsertDecodeCode(const std::vector<uint8_t>& body) {
  return DecodeInsertResponse(body.data(), body.size()).status().code();
}

TEST(LiveWireTest, MutationFramesRoundTrip) {
  InsertRequest insert{3, "http://a/b", "some document text here"};
  Result<std::vector<uint8_t>> frame = EncodeInsertRequest(insert);
  ASSERT_TRUE(frame.ok());
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  ASSERT_TRUE(DecodeFrame(frame.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kInsertRequest);
  Result<InsertRequest> decoded = DecodeInsertRequest(body, body_len);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().node_id, 3u);
  EXPECT_EQ(decoded.value().url, insert.url);
  EXPECT_EQ(decoded.value().text, insert.text);

  InsertResponse ins_resp{3, 12345678901234ull, 42, 5, {"alpha", "beta"}};
  std::vector<uint8_t> f2 = EncodeInsertResponse(ins_resp).value();
  ASSERT_TRUE(DecodeFrame(f2, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kInsertResponse);
  Result<InsertResponse> d2 = DecodeInsertResponse(body, body_len);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2.value().doc_id, ins_resp.doc_id);
  EXPECT_EQ(d2.value().epoch, ins_resp.epoch);
  EXPECT_EQ(d2.value().length, 5);
  EXPECT_EQ(d2.value().stems, ins_resp.stems);

  DeleteRequest del{1, "http://a/b"};
  Result<std::vector<uint8_t>> f3 = EncodeDeleteRequest(del);
  ASSERT_TRUE(f3.ok());
  ASSERT_TRUE(DecodeFrame(f3.value(), &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kDeleteRequest);
  Result<DeleteRequest> d3 = DecodeDeleteRequest(body, body_len);
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(d3.value().url, del.url);

  DeleteResponse del_resp{1, true, 43, 2, {"gamma"}};
  std::vector<uint8_t> f4 = EncodeDeleteResponse(del_resp).value();
  ASSERT_TRUE(DecodeFrame(f4, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kDeleteResponse);
  Result<DeleteResponse> d4 = DecodeDeleteResponse(body, body_len);
  ASSERT_TRUE(d4.ok());
  EXPECT_TRUE(d4.value().found);
  EXPECT_EQ(d4.value().epoch, 43u);
  EXPECT_EQ(d4.value().length, 2);
  EXPECT_EQ(d4.value().stems, del_resp.stems);

  MergeRequest merge{2};
  std::vector<uint8_t> f5 = EncodeMergeRequest(merge);
  ASSERT_TRUE(DecodeFrame(f5, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kMergeRequest);
  ASSERT_TRUE(DecodeMergeRequest(body, body_len).ok());

  MergeResponse merge_resp{2, 44, 7};
  std::vector<uint8_t> f6 = EncodeMergeResponse(merge_resp);
  ASSERT_TRUE(DecodeFrame(f6, &type, &body, &body_len).ok());
  ASSERT_EQ(type, MessageType::kMergeResponse);
  Result<MergeResponse> d6 = DecodeMergeResponse(body, body_len);
  ASSERT_TRUE(d6.ok());
  EXPECT_EQ(d6.value().epoch, 44u);
  EXPECT_EQ(d6.value().merges, 7u);

  // Truncated mutation bodies surface as clean corruption, like every
  // other frame.
  EXPECT_FALSE(DecodeInsertRequest(frame.value().data() + 5, 2).ok());
  EXPECT_FALSE(DecodeDeleteResponse(f4.data() + 5, 1).ok());
}

// The statistics delta of frames 11 and 13 is required and decoded
// strictly: every strict prefix of a body fails as kCorruption, a frame
// without the delta (the older layout) fails closed, and so do stems
// that are empty, repeated or out of order, a length below the stem
// count, a stem count the remaining bytes cannot back, and a delta on
// a delete that found nothing.
TEST(LiveWireTest, StatsDeltaDecodesStrictly) {
  const InsertResponse insert{2, 17, 9, 6, {"alpha", "beta", "gamma"}};
  const DeleteResponse found{2, true, 10, 6, {"alpha", "beta", "gamma"}};
  const DeleteResponse missed{2, false, 10, 0, {}};
  const std::vector<std::vector<uint8_t>> frames = {
      EncodeInsertResponse(insert).value(), EncodeDeleteResponse(found).value(),
      EncodeDeleteResponse(missed).value()};
  for (size_t f = 0; f < frames.size(); ++f) {
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    ASSERT_TRUE(DecodeFrame(frames[f], &type, &body, &body_len).ok());
    if (type == MessageType::kInsertResponse) {
      Result<InsertResponse> back = DecodeInsertResponse(body, body_len);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value().length, insert.length);
      EXPECT_EQ(back.value().stems, insert.stems);
    } else {
      Result<DeleteResponse> back = DecodeDeleteResponse(body, body_len);
      ASSERT_TRUE(back.ok());
      const DeleteResponse& want = f == 1 ? found : missed;
      EXPECT_EQ(back.value().found, want.found);
      EXPECT_EQ(back.value().length, want.length);
      EXPECT_EQ(back.value().stems, want.stems);
    }
    for (size_t len = 0; len < body_len; ++len) {
      const StatusCode code =
          type == MessageType::kInsertResponse
              ? DecodeInsertResponse(body, len).status().code()
              : DecodeDeleteResponse(body, len).status().code();
      EXPECT_EQ(code, StatusCode::kCorruption)
          << "truncated body of " << len << " bytes";
    }
  }

  // The layout without the delta: node, doc id, epoch / node, found,
  // epoch — and nothing after.
  const std::vector<uint8_t> old_insert = {2, 17, 9};
  const std::vector<uint8_t> old_delete = {2, 1, 10};
  EXPECT_EQ(InsertDecodeCode(old_insert), StatusCode::kCorruption);
  EXPECT_EQ(DecodeDeleteResponse(old_delete.data(), old_delete.size())
                .status()
                .code(),
            StatusCode::kCorruption);

  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(2, 2, {"a", "b"})),
            StatusCode::kOk);
  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(2, 2, {"b", "a"})),
            StatusCode::kCorruption);
  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(2, 2, {"a", "a"})),
            StatusCode::kCorruption);
  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(1, 1, {""})),
            StatusCode::kCorruption);
  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(1, 2, {"a", "b"})),
            StatusCode::kCorruption);
  // 2^28 stems promised, one present: refused before any allocation.
  EXPECT_EQ(InsertDecodeCode(InsertBodyWithDelta(1u << 28, 1u << 28, {"a"})),
            StatusCode::kCorruption);

  const DeleteResponse missed_with_delta{2, false, 10, 1, {"a"}};
  const std::vector<uint8_t> frame =
      EncodeDeleteResponse(missed_with_delta).value();
  EXPECT_EQ(DecodeDeleteResponse(frame.data() + 5, frame.size() - 5)
                .status()
                .code(),
            StatusCode::kCorruption);
}

/// Passes every frame to `inner` and counts the frames of each type.
class CountingTransport : public Transport {
 public:
  explicit CountingTransport(Transport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& frame,
                                    Deadline deadline) override {
    if (frame.size() > kFrameHeaderBytes) {
      counts_[frame[kFrameHeaderBytes]].fetch_add(1);
    }
    return inner_->Call(frame, deadline);
  }

  uint64_t count(MessageType type) const {
    return counts_[static_cast<uint8_t>(type)].load();
  }

 private:
  Transport* inner_;
  std::array<std::atomic<uint64_t>, 256> counts_{};
};

/// `num_shards` live shards, each `num_replicas` LiveIndex copies
/// hosted as nodes on one ShardServer, dialled over loopback. `remote`
/// dials through frame counters; FreshlyConnected() dials the same
/// replicas directly.
struct LiveLoopbackCluster {
  LiveLoopbackCluster(size_t num_shards, size_t num_replicas,
                      size_t delta_seal_docs = 8)
      : num_replicas_(num_replicas), direct_sets_(num_shards) {
    std::vector<RemoteClusterIndex::ReplicaSet> sets(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t r = 0; r < num_replicas; ++r) {
        ingest::LiveIndexOptions options;
        options.delta_seal_docs = delta_seal_docs;
        lives.push_back(std::make_unique<ingest::LiveIndex>(options));
        const uint32_t node_id = server.AddLiveNode(lives.back().get());
        transports.push_back(
            std::make_unique<LoopbackTransport>(server.Handler()));
        counters.push_back(
            std::make_unique<CountingTransport>(transports.back().get()));
        sets[s].replicas.push_back({counters.back().get(), node_id});
        direct_sets_[s].replicas.push_back({transports.back().get(), node_id});
      }
    }
    remote = std::make_unique<RemoteClusterIndex>(std::move(sets), Options());
  }

  static RemoteClusterIndex::Options Options() {
    RemoteClusterIndex::Options options;
    options.hedge = false;  // deterministic frames for this test
    return options;
  }

  /// The LiveIndex behind replica `r` of shard `s` (s-major layout).
  ingest::LiveIndex& live(size_t s, size_t r) {
    return *lives[s * num_replicas_ + r];
  }

  /// A second coordinator over the same replicas, not yet connected;
  /// its Connect() builds the statistics from scratch.
  std::unique_ptr<RemoteClusterIndex> FreshCoordinator() const {
    return std::make_unique<RemoteClusterIndex>(direct_sets_, Options());
  }

  /// Frames of `type` that `remote` has sent.
  uint64_t frames(MessageType type) const {
    uint64_t sum = 0;
    for (const auto& counter : counters) sum += counter->count(type);
    return sum;
  }

  size_t num_replicas_;
  std::vector<RemoteClusterIndex::ReplicaSet> direct_sets_;
  ShardServer server;
  std::vector<std::unique_ptr<ingest::LiveIndex>> lives;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<std::unique_ptr<CountingTransport>> counters;
  std::unique_ptr<RemoteClusterIndex> remote;
};

/// The statistics `fx.remote` maintains from acknowledgement deltas
/// must equal what a fresh handshake against the same replicas builds:
/// df of every stem in `stems`, collection length, document count and
/// cluster epoch.
void ExpectStatsMatchFreshHandshake(const LiveLoopbackCluster& fx,
                                    const std::set<std::string>& stems) {
  std::unique_ptr<RemoteClusterIndex> fresh = fx.FreshCoordinator();
  ASSERT_TRUE(fresh->Connect().ok());
  EXPECT_EQ(fx.remote->document_count(), fresh->document_count());
  EXPECT_EQ(fx.remote->global_collection_length(),
            fresh->global_collection_length());
  EXPECT_EQ(fx.remote->cluster_epoch(), fresh->cluster_epoch());
  for (const std::string& stem : stems) {
    EXPECT_EQ(fx.remote->global_df(stem), fresh->global_df(stem)) << stem;
  }
}

/// The from-scratch reference: partitions the live documents by the
/// centre's routing hash, rebuilds one TextIndex per shard, aggregates
/// global statistics exactly as the handshake does, and runs the
/// in-process shard evaluation + merge.
std::vector<ir::ClusterScoredDoc> RebuildReference(
    const RemoteClusterIndex& remote,
    const std::vector<std::pair<std::string, std::string>>& live_docs,
    const std::vector<std::string>& words, size_t n, size_t max_fragments,
    size_t num_fragments) {
  const size_t shards = remote.num_shards();
  std::vector<std::unique_ptr<ir::TextIndex>> indexes;
  for (size_t s = 0; s < shards; ++s) {
    ir::TextIndex::Options options;
    options.flush_batch = live_docs.size() + 2;
    indexes.push_back(std::make_unique<ir::TextIndex>(options));
  }
  for (const auto& [url, text] : live_docs) {
    indexes[remote.ShardForUrl(url)]->AddDocument(url, text);
  }
  int64_t collection_length = 0;
  for (auto& index : indexes) {
    index->Flush();
    collection_length += index->collection_length();
  }

  ir::ShardQuery query;
  query.n = n;
  query.max_fragments = max_fragments;
  query.collection_length = collection_length;
  for (const std::string& word : words) {
    std::optional<std::string> stem = ir::NormalizeWordAs(word, true, true);
    if (!stem) continue;
    if (std::find(query.stems.begin(), query.stems.end(), *stem) !=
        query.stems.end()) {
      continue;
    }
    int32_t df = 0;
    for (auto& index : indexes) {
      std::optional<ir::TermId> t = index->LookupTerm(*stem);
      if (t) df += index->df(*t);
    }
    if (df == 0) continue;
    query.stems.push_back(*stem);
    query.stem_global_df.push_back(df);
  }

  std::vector<ir::ShardResult> results(shards);
  for (size_t s = 0; s < shards; ++s) {
    ir::FragmentedIndex fragments(indexes[s].get(), num_fragments);
    results[s] = ir::EvaluateShardQuery(*indexes[s], fragments, query);
  }
  return ir::MergeShardResults(&results, n);
}

std::string MakeBody(Rng* rng, ZipfSampler* zipf, size_t words) {
  std::string body;
  for (size_t i = 0; i < words; ++i) {
    if (!body.empty()) body += ' ';
    body += StrFormat("term%03zu", zipf->Sample(rng));
  }
  return body;
}

TEST(LiveClusterTest, FrozenNodeRefusesMutations) {
  ir::TextIndex index;
  index.AddDocument("doc0", "hello world");
  index.Flush();
  ir::FragmentedIndex fragments(&index, 2);
  ShardServer server;
  server.AddNode(&index, &fragments);
  LoopbackTransport transport(server.Handler());
  RemoteClusterIndex remote({{&transport, 0}});
  ASSERT_TRUE(remote.Connect().ok());
  Result<uint64_t> inserted = remote.Insert("doc1", "new text");
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kUnsupported);
}

TEST(LiveClusterTest, MutationsRouteByUrlHashAndSearchIsBitIdentical) {
  LiveLoopbackCluster fx(/*num_shards=*/3, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  EXPECT_EQ(fx.remote->document_count(), 0u);
  const uint64_t handshake_frames = fx.frames(MessageType::kStatsRequest);

  Rng rng(20260808);
  ZipfSampler zipf(150, 1.1);
  std::set<std::string> stems;
  std::vector<std::pair<std::string, std::string>> live_docs;
  std::vector<size_t> expect_docs(3, 0);
  for (size_t d = 0; d < 60; ++d) {
    const std::string url = StrFormat("http://site/%04zu", d);
    const std::string text = MakeBody(&rng, &zipf, 20);
    Result<uint64_t> id = fx.remote->Insert(url, text);
    ASSERT_TRUE(id.ok()) << id.status().message();
    live_docs.emplace_back(url, text);
    for (const std::string& stem : DeltaOf(text).first) stems.insert(stem);
    // Routing check: exactly the owning shard's LiveIndex grew.
    const size_t owner = fx.remote->ShardForUrl(url);
    expect_docs[owner] += 1;
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(fx.live(s, 0).Pin()->live_docs(), expect_docs[s]);
    }
  }
  // Delete a third of them through the centre.
  for (size_t d = 0; d < 60; d += 3) {
    Result<bool> found = fx.remote->Delete(live_docs[d].first);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found.value());
  }
  std::vector<std::pair<std::string, std::string>> survivors;
  for (size_t d = 0; d < live_docs.size(); ++d) {
    if (d % 3 != 0) survivors.push_back(live_docs[d]);
  }

  // Deleting a url nobody has reports found == false on every shard.
  Result<bool> missing = fx.remote->Delete("http://site/none");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value());

  // The acknowledgements kept the statistics exact: they equal a fresh
  // handshake's, and no stats frame was needed for that.
  ExpectStatsMatchFreshHandshake(fx, stems);
  EXPECT_EQ(fx.frames(MessageType::kStatsRequest), handshake_frames);
  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term001"},
      {"term004", "term020", "term077"},
      {"term002"},
  };
  for (const auto& words : queries) {
    std::vector<ir::ClusterScoredDoc> got =
        fx.remote->Query(words, 10, /*max_fragments=*/4);
    std::vector<ir::ClusterScoredDoc> want = RebuildReference(
        *fx.remote, survivors, words, 10, /*max_fragments=*/4,
        /*num_fragments=*/4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
    }
  }
  // Queries resolve against the maintained statistics: still no stats
  // frame after Connect().
  EXPECT_EQ(fx.frames(MessageType::kStatsRequest), handshake_frames);
  EXPECT_EQ(fx.remote->document_count(), survivors.size());

  // After MergeAll every shard serves one frozen run; the fragment
  // cut-off now applies exactly like the rebuild's, so a truncated
  // fan-out stays bit-identical too.
  ASSERT_TRUE(fx.remote->MergeAll().ok());
  for (const auto& words : queries) {
    std::vector<ir::ClusterScoredDoc> got =
        fx.remote->Query(words, 10, /*max_fragments=*/2);
    std::vector<ir::ClusterScoredDoc> want = RebuildReference(
        *fx.remote, survivors, words, 10, /*max_fragments=*/2,
        /*num_fragments=*/4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].url, want[i].url) << "rank " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "rank " << i;
    }
  }
}

TEST(LiveClusterTest, MutationsKeepReplicasIdentical) {
  LiveLoopbackCluster fx(/*num_shards=*/2, /*num_replicas=*/2);
  ASSERT_TRUE(fx.remote->Connect().ok());

  Rng rng(7);
  ZipfSampler zipf(100, 1.1);
  for (size_t d = 0; d < 30; ++d) {
    ASSERT_TRUE(
        fx.remote->Insert(StrFormat("u%04zu", d), MakeBody(&rng, &zipf, 12))
            .ok());
  }
  for (size_t d = 0; d < 30; d += 4) {
    ASSERT_TRUE(fx.remote->Delete(StrFormat("u%04zu", d)).ok());
  }
  ASSERT_TRUE(fx.remote->MergeAll().ok());

  // Both replicas of each shard applied the same mutation sequence:
  // same epoch, same live set, bit-identical local rankings.
  for (size_t s = 0; s < 2; ++s) {
    auto snap0 = fx.live(s, 0).Pin();
    auto snap1 = fx.live(s, 1).Pin();
    EXPECT_EQ(snap0->epoch(), snap1->epoch());
    EXPECT_EQ(snap0->live_docs(), snap1->live_docs());
    EXPECT_EQ(snap0->collection_length(), snap1->collection_length());
    std::vector<ingest::LiveScoredDoc> top0 =
        snap0->Query({"term000", "term001"}, 8);
    std::vector<ingest::LiveScoredDoc> top1 =
        snap1->Query({"term000", "term001"}, 8);
    ASSERT_EQ(top0.size(), top1.size());
    for (size_t i = 0; i < top0.size(); ++i) {
      EXPECT_EQ(top0[i].url, top1[i].url);
      EXPECT_EQ(Bits(top0[i].score), Bits(top1[i].score));
    }
  }

  // A replica that cannot be reached leaves the mutation incomplete
  // and the caller is told, rather than the set silently diverging.
  fx.transports[1]->Kill();
  const size_t victim_shard = fx.remote->ShardForUrl("victim");
  Result<uint64_t> id = fx.remote->Insert("victim", "text");
  if (victim_shard == 0) {
    EXPECT_FALSE(id.ok());
  } else {
    EXPECT_TRUE(id.ok());
  }
}

// After every acknowledgement of a randomized insert / delete (found
// and missing) / MergeAll sequence, the coordinator's statistics equal
// a fresh handshake's — including a stem whose df drops to 0 and a
// stem no document had before — and no stats frame is sent after
// Connect().
TEST(LiveClusterTest, MaintainedStatisticsMatchAFreshHandshake) {
  LiveLoopbackCluster fx(/*num_shards=*/2, /*num_replicas=*/2,
                         /*delta_seal_docs=*/4);
  ASSERT_TRUE(fx.remote->Connect().ok());
  const uint64_t handshake_frames = fx.frames(MessageType::kStatsRequest);
  const uint64_t seed = FaultSeed();
  SCOPED_TRACE(StrFormat("DLS_FAULT_SEED=%llu",
                         static_cast<unsigned long long>(seed)));

  Rng rng(seed);
  ZipfSampler zipf(60, 1.1);
  std::set<std::string> stems;
  std::vector<std::string> live_urls;
  size_t next = 0;
  auto insert = [&](const std::string& text) {
    const std::string url = StrFormat("http://site/%04zu", next++);
    Result<uint64_t> id = fx.remote->Insert(url, text);
    ASSERT_TRUE(id.ok()) << id.status().message();
    live_urls.push_back(url);
    for (const std::string& stem : DeltaOf(text).first) stems.insert(stem);
  };
  auto erase = [&](size_t pick) {
    Result<bool> found = fx.remote->Delete(live_urls[pick]);
    ASSERT_TRUE(found.ok()) << found.status().message();
    EXPECT_TRUE(found.value());
    live_urls.erase(live_urls.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  // "solitary" is held by this one document only.
  insert("solitary " + MakeBody(&rng, &zipf, 6));
  const std::string solitary = DeltaOf("solitary").first[0];
  ExpectStatsMatchFreshHandshake(fx, stems);
  EXPECT_EQ(fx.remote->global_df(solitary), 1);

  for (size_t step = 0; step < 80; ++step) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 5 || live_urls.size() < 2) {
      insert(MakeBody(&rng, &zipf, 8));
    } else if (dice < 8) {
      // Never the solitary document (index 0) here; it goes below.
      erase(1 + rng.Uniform(live_urls.size() - 1));
    } else if (dice < 9) {
      Result<bool> found =
          fx.remote->Delete(StrFormat("http://site/missing-%zu", step));
      ASSERT_TRUE(found.ok());
      EXPECT_FALSE(found.value());
    } else {
      ASSERT_TRUE(fx.remote->MergeAll().ok());
    }
    ExpectStatsMatchFreshHandshake(fx, stems);
    if (HasFailure()) return;
  }

  // Its only holder deleted, the stem leaves the vocabulary.
  erase(0);
  ExpectStatsMatchFreshHandshake(fx, stems);
  EXPECT_EQ(fx.remote->global_df(solitary), 0);

  // A stem no document had enters at df 1.
  insert("neologism " + MakeBody(&rng, &zipf, 6));
  const std::string neologism = DeltaOf("neologism").first[0];
  ExpectStatsMatchFreshHandshake(fx, stems);
  EXPECT_EQ(fx.remote->global_df(neologism), 1);

  EXPECT_EQ(fx.frames(MessageType::kStatsRequest), handshake_frames);
}

// A write that reaches replica 0 but not replica 1 reports the failure,
// and the coordinator's statistics follow replica 0, which holds it.
TEST(LiveClusterTest, PartialReplicaWriteLeavesStatisticsOnTheFirstReplica) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/2);
  ASSERT_TRUE(fx.remote->Connect().ok());
  Rng rng(11);
  ZipfSampler zipf(40, 1.1);
  std::set<std::string> stems;
  for (size_t d = 0; d < 12; ++d) {
    const std::string text = MakeBody(&rng, &zipf, 10);
    for (const std::string& stem : DeltaOf(text).first) stems.insert(stem);
    ASSERT_TRUE(fx.remote->Insert(StrFormat("u%04zu", d), text).ok());
  }
  auto expect_replica0 = [&] {
    std::shared_ptr<const ingest::LiveIndex::Snapshot> snap =
        fx.live(0, 0).Pin();
    EXPECT_EQ(fx.remote->global_collection_length(),
              snap->collection_length());
    EXPECT_EQ(fx.remote->document_count(), snap->live_docs());
    EXPECT_EQ(fx.remote->cluster_epoch(), snap->epoch());
    for (const std::string& stem : stems) {
      EXPECT_EQ(fx.remote->global_df(stem), snap->EffectiveDf(stem)) << stem;
    }
  };

  // Replica 1 refuses with an Error frame (a refusal is not resent),
  // then dies.
  fx.transports[1]->ErrorFrameCalls(2);
  const std::string text = "partial write " + MakeBody(&rng, &zipf, 6);
  for (const std::string& stem : DeltaOf(text).first) stems.insert(stem);
  Result<uint64_t> id = fx.remote->Insert("partial", text);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(fx.live(0, 1).Pin()->live_docs(), 12u);
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 13u);
  expect_replica0();

  fx.transports[1]->Kill();
  Result<bool> found = fx.remote->Delete("u0003");
  EXPECT_FALSE(found.ok());
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 12u);
  expect_replica0();
}

// An Insert or Delete whose answer is lost is not sent again: the node
// may have applied it, and a resend would report AlreadyExists or
// found=false for a write that happened. The call fails with
// kUnavailable, and Connect() brings the statistics back to the node's.
TEST(LiveClusterTest, LostMutationAnswerIsAnErrorNotAResend) {
  LiveLoopbackCluster fx(/*num_shards=*/1, /*num_replicas=*/1);
  ASSERT_TRUE(fx.remote->Connect().ok());
  Rng rng(13);
  ZipfSampler zipf(40, 1.1);
  std::set<std::string> stems;
  auto body = [&] {
    const std::string text = MakeBody(&rng, &zipf, 10);
    for (const std::string& stem : DeltaOf(text).first) stems.insert(stem);
    return text;
  };
  for (size_t d = 0; d < 6; ++d) {
    ASSERT_TRUE(fx.remote->Insert(StrFormat("u%04zu", d), body()).ok());
  }
  LoopbackTransport& transport = *fx.transports[0];

  // The node applies the insert; its answer arrives cut in half.
  transport.TruncateCalls(1);
  int dispatched = transport.dispatched_calls();
  Result<uint64_t> id = fx.remote->Insert("lost-insert", "lost " + body());
  stems.insert(DeltaOf("lost").first[0]);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(id.status().message().find("Connect()"), std::string::npos);
  EXPECT_EQ(transport.dispatched_calls(), dispatched + 1);  // sent once
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 7u);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ExpectStatsMatchFreshHandshake(fx, stems);

  // Likewise a delete.
  transport.TruncateCalls(1);
  dispatched = transport.dispatched_calls();
  Result<bool> found = fx.remote->Delete("u0002");
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.dispatched_calls(), dispatched + 1);
  EXPECT_EQ(fx.live(0, 0).Pin()->live_docs(), 6u);
  ASSERT_TRUE(fx.remote->Connect().ok());
  ExpectStatsMatchFreshHandshake(fx, stems);

  // Resynchronised, the coordinator sees the write it was not told of.
  Result<bool> again = fx.remote->Delete("lost-insert");
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_TRUE(again.value());
  ExpectStatsMatchFreshHandshake(fx, stems);
}

/// Records the merge frames the watched transports carry: how many
/// were in flight at once, overall and per shard, and in which replica
/// order each shard's arrived.
class MergeLog {
 public:
  explicit MergeLog(size_t shards)
      : order_(shards), in_flight_per_shard_(shards, 0) {}

  void Begin(size_t shard, size_t replica) {
    std::lock_guard<std::mutex> lock(mu_);
    most_ = std::max(most_, ++in_flight_);
    most_per_shard_ =
        std::max(most_per_shard_, ++in_flight_per_shard_[shard]);
    order_[shard].push_back(replica);
  }
  void End(size_t shard) {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    --in_flight_per_shard_[shard];
  }

  size_t most() const { return most_; }
  size_t most_per_shard() const { return most_per_shard_; }
  const std::vector<size_t>& order(size_t shard) const {
    return order_[shard];
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<size_t>> order_;
  std::vector<size_t> in_flight_per_shard_;
  size_t in_flight_ = 0;
  size_t most_ = 0;
  size_t most_per_shard_ = 0;
};

/// Holds each merge frame 20 ms in flight (a merge's real cost on a
/// large delta) and logs it; other frames pass straight through.
class MergeWatchTransport : public Transport {
 public:
  MergeWatchTransport(Transport* inner, MergeLog* log, size_t shard,
                      size_t replica)
      : inner_(inner), log_(log), shard_(shard), replica_(replica) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& frame,
                                    Deadline deadline) override {
    if (frame.size() <= kFrameHeaderBytes ||
        frame[kFrameHeaderBytes] !=
            static_cast<uint8_t>(MessageType::kMergeRequest)) {
      return inner_->Call(frame, deadline);
    }
    log_->Begin(shard_, replica_);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Result<std::vector<uint8_t>> answer = inner_->Call(frame, deadline);
    log_->End(shard_);
    return answer;
  }

 private:
  Transport* inner_;
  MergeLog* log_;
  const size_t shard_;
  const size_t replica_;
};

// MergeAll merges the shards at once, while each shard still walks its
// replicas one after another in order, and every acknowledged epoch
// reaches the statistics.
TEST(LiveClusterTest, MergeAllMergesShardsConcurrently) {
  constexpr size_t kShards = 4;
  constexpr size_t kReplicas = 2;
  LiveLoopbackCluster fx(kShards, kReplicas);
  MergeLog log(kShards);
  std::vector<std::unique_ptr<MergeWatchTransport>> watched;
  std::vector<RemoteClusterIndex::ReplicaSet> sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      watched.push_back(std::make_unique<MergeWatchTransport>(
          fx.transports[s * kReplicas + r].get(), &log, s, r));
      sets[s].replicas.push_back(
          {watched.back().get(), fx.direct_sets_[s].replicas[r].node_id});
    }
  }
  RemoteClusterIndex remote(std::move(sets), LiveLoopbackCluster::Options());
  ASSERT_TRUE(remote.Connect().ok());
  Rng rng(17);
  ZipfSampler zipf(60, 1.1);
  for (size_t d = 0; d < 40; ++d) {
    ASSERT_TRUE(
        remote.Insert(StrFormat("u%04zu", d), MakeBody(&rng, &zipf, 8)).ok());
  }

  ASSERT_TRUE(remote.MergeAll().ok());
  EXPECT_GE(log.most(), 2u);
  EXPECT_EQ(log.most_per_shard(), 1u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(log.order(s), (std::vector<size_t>{0, 1})) << "shard " << s;
  }
  std::unique_ptr<RemoteClusterIndex> fresh = fx.FreshCoordinator();
  ASSERT_TRUE(fresh->Connect().ok());
  EXPECT_EQ(remote.cluster_epoch(), fresh->cluster_epoch());
  EXPECT_EQ(remote.document_count(), fresh->document_count());
}

// A delete acknowledgement whose delta the global statistics cannot
// absorb — a stem outside the vocabulary (its df would go below 0) or
// more length than the collection holds — is refused as kCorruption,
// and no part of it is applied.
TEST(LiveClusterTest, DeleteDeltaTheStatisticsCannotAbsorbIsRefusedWhole) {
  ingest::LiveIndex live;
  ShardServer server;
  const uint32_t node = server.AddLiveNode(&live);
  std::optional<DeleteResponse> forged;
  LoopbackTransport transport(
      [&](const std::vector<uint8_t>& frame) -> Result<std::vector<uint8_t>> {
        if (forged.has_value() &&
            frame[kFrameHeaderBytes] ==
                static_cast<uint8_t>(MessageType::kDeleteRequest)) {
          return EncodeDeleteResponse(*forged);
        }
        return server.HandleFrame(frame);
      });
  RemoteClusterIndex remote({{&transport, node}});
  ASSERT_TRUE(remote.Connect().ok());
  ASSERT_TRUE(remote.Insert("a", "alpha beta").ok());
  ASSERT_TRUE(remote.Insert("b", "beta gamma").ok());

  const std::vector<std::string> stems = {"alpha", "beta", "gamma", "zzz"};
  struct View {
    std::vector<int32_t> dfs;
    int64_t length;
    uint64_t docs;
    uint64_t epoch;
    bool operator==(const View&) const = default;
  };
  auto view = [&] {
    View v{{}, remote.global_collection_length(), remote.document_count(),
           remote.cluster_epoch()};
    for (const std::string& stem : stems) {
      v.dfs.push_back(remote.global_df(stem));
    }
    return v;
  };
  const View before = view();
  EXPECT_EQ(before.dfs, (std::vector<int32_t>{1, 2, 1, 0}));

  // "beta" is known, "zzz" is not: not even beta's df moves.
  forged = DeleteResponse{node, true, 99, 2, {"beta", "zzz"}};
  Result<bool> r = remote.Delete("a");
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(view() == before);

  forged = DeleteResponse{node, true, 99, 1000, {"alpha"}};
  r = remote.Delete("a");
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(view() == before);

  // A well-formed delta applies; the same stem again would take its df
  // below 0, so the repeat is refused whole.
  forged = DeleteResponse{node, true, 100, 1, {"alpha"}};
  ASSERT_TRUE(remote.Delete("a").ok());
  const View after = view();
  EXPECT_EQ(after.dfs, (std::vector<int32_t>{0, 2, 1, 0}));
  EXPECT_EQ(after.length, before.length - 1);
  EXPECT_EQ(after.docs, before.docs - 1);
  r = remote.Delete("a");
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(view() == after);
}

// The epoch a mutation acknowledgement reports is the first epoch whose
// snapshot shows the change, while other writers' mutations and a
// background merge after every insert publish epochs of their own.
TEST(LiveClusterTest, AcknowledgedEpochIsTheFirstThatShowsTheMutation) {
  ingest::LiveIndexOptions options;
  options.auto_merge_docs = 1;  // a background merge races every insert
  options.merge_poll_ms = 1;
  ingest::LiveIndex live(options);
  ShardServer server;
  const uint32_t node = server.AddLiveNode(&live);

  // Every distinct snapshot seen, by epoch: an observer pins in a loop,
  // and each writer pins around each of its mutations.
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const ingest::LiveIndex::Snapshot>> seen;
  auto record = [&] {
    std::shared_ptr<const ingest::LiveIndex::Snapshot> snap = live.Pin();
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace(snap->epoch(), std::move(snap));
  };
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) record();
  });

  // Sends one mutation frame and returns the decoded answer.
  auto call = [&](Result<std::vector<uint8_t>> request, auto decode) {
    Result<std::vector<uint8_t>> answer = server.HandleFrame(request.value());
    const std::vector<uint8_t>& frame = answer.value();
    return decode(frame.data() + kFrameHeaderBytes + 1,
                  frame.size() - kFrameHeaderBytes - 1);
  };
  struct Acked {
    std::string marker;
    uint64_t inserted = 0;
    uint64_t deleted = 0;  ///< 0: still live
  };
  constexpr size_t kWriters = 4;
  constexpr size_t kDocsEach = 40;
  std::vector<std::vector<Acked>> acked(kWriters);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kDocsEach; ++i) {
        const std::string marker = StrFormat("marker%zu%03zu", w, i);
        const std::string text = marker + " shared words shared";
        record();
        Result<InsertResponse> inserted =
            call(EncodeInsertRequest(InsertRequest{node, marker, text}),
                 &DecodeInsertResponse);
        record();
        if (!inserted.ok()) return ADD_FAILURE() << inserted.status().message();
        EXPECT_EQ(inserted.value().stems, DeltaOf(text).first);
        EXPECT_EQ(inserted.value().length, DeltaOf(text).second);
        acked[w].push_back({marker, inserted.value().epoch});
        if (i % 3 != 2) continue;
        const std::string& victim = acked[w][i - 1].marker;
        Result<DeleteResponse> deleted =
            call(EncodeDeleteRequest(DeleteRequest{node, victim}),
                 &DecodeDeleteResponse);
        record();
        if (!deleted.ok() || !deleted.value().found) {
          return ADD_FAILURE() << "delete of " << victim;
        }
        acked[w][i - 1].deleted = deleted.value().epoch;
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  observer.join();
  record();

  // Each mutation published an epoch of its own.
  std::set<uint64_t> epochs;
  size_t mutations = 0;
  for (const std::vector<Acked>& list : acked) {
    for (const Acked& a : list) {
      epochs.insert(a.inserted);
      ++mutations;
      if (a.deleted != 0) {
        epochs.insert(a.deleted);
        ++mutations;
      }
    }
  }
  EXPECT_EQ(epochs.size(), mutations);

  for (const auto& [epoch, snap] : seen) {
    for (const std::vector<Acked>& list : acked) {
      for (const Acked& a : list) {
        const bool visible = !snap->Query({a.marker}, 1).empty();
        const bool want =
            epoch >= a.inserted && (a.deleted == 0 || epoch < a.deleted);
        EXPECT_EQ(visible, want) << a.marker << " at epoch " << epoch
                                 << " (inserted at " << a.inserted
                                 << ", deleted at " << a.deleted << ")";
      }
    }
  }
}

// Regression for readers racing the writer: in each round, readers
// query through the coordinator while a seeded writer mutates; they
// park for the round's last mutation, and right after its
// acknowledgement they all query at once. Every one of those answers
// must have the urls and score bits of a from-scratch rebuild.
TEST(LiveClusterTest, ReadersAfterTheLastAcknowledgementMatchARebuild) {
  LiveLoopbackCluster fx(/*num_shards=*/2, /*num_replicas=*/2,
                         /*delta_seal_docs=*/4);
  ASSERT_TRUE(fx.remote->Connect().ok());
  const uint64_t seed = FaultSeed();
  SCOPED_TRACE(StrFormat("DLS_FAULT_SEED=%llu",
                         static_cast<unsigned long long>(seed)));
  Rng rng(seed);
  ZipfSampler zipf(80, 1.1);
  std::vector<std::pair<std::string, std::string>> docs;
  size_t next = 0;
  auto insert = [&] {
    docs.emplace_back(StrFormat("d%04zu", next++), MakeBody(&rng, &zipf, 10));
    EXPECT_TRUE(fx.remote->Insert(docs.back().first, docs.back().second).ok());
  };
  auto erase = [&] {
    const size_t pick = rng.Uniform(docs.size());
    Result<bool> found = fx.remote->Delete(docs[pick].first);
    EXPECT_TRUE(found.ok() && found.value());
    docs.erase(docs.begin() + static_cast<std::ptrdiff_t>(pick));
  };
  while (docs.size() < 30) insert();

  const std::vector<std::vector<std::string>> queries = {
      {"term000", "term001"}, {"term003", "term017", "term040"}, {"term002"}};
  constexpr size_t kReaders = 3;
  constexpr size_t kRounds = 6;
  using Answers = std::vector<std::vector<ir::ClusterScoredDoc>>;
  // finals[round][reader]: the answers of the burst after the round.
  std::vector<std::vector<Answers>> finals(kRounds,
                                           std::vector<Answers>(kReaders));
  std::vector<std::vector<std::pair<std::string, std::string>>> live_at(
      kRounds);
  std::atomic<bool> writing{true};
  std::barrier sync(kReaders + 1);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto run = [&] {
        if (t % 2 == 1) return fx.remote->QueryBatch(queries, 10, 4);
        Answers out;
        for (const auto& words : queries) {
          out.push_back(fx.remote->Query(words, 10, 4));
        }
        return out;
      };
      for (size_t round = 0; round < kRounds; ++round) {
        while (writing.load()) (void)run();
        sync.arrive_and_wait();  // parked for the last mutation
        sync.arrive_and_wait();  // acknowledged: all query at once
        finals[round][t] = run();
        sync.arrive_and_wait();
      }
    });
  }

  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t step = 0; step < 10; ++step) {
      const uint64_t dice = rng.Uniform(20);
      if (dice < 12 || docs.size() < 2) {
        insert();
      } else if (dice < 17) {
        erase();
      } else if (dice < 18) {
        EXPECT_TRUE(fx.remote->Delete("never-inserted").ok());
      } else {
        EXPECT_TRUE(fx.remote->MergeAll().ok());
      }
    }
    writing.store(false);
    sync.arrive_and_wait();
    if (rng.Uniform(2) == 0) {
      insert();
    } else {
      erase();
    }
    live_at[round] = docs;
    sync.arrive_and_wait();
    writing.store(true);
    sync.arrive_and_wait();
  }
  for (std::thread& reader : readers) reader.join();

  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::vector<ir::ClusterScoredDoc> want =
          RebuildReference(*fx.remote, live_at[round], queries[q], 10,
                           /*max_fragments=*/4, /*num_fragments=*/4);
      for (size_t t = 0; t < kReaders; ++t) {
        const std::vector<ir::ClusterScoredDoc>& got = finals[round][t][q];
        ASSERT_EQ(got.size(), want.size())
            << "round " << round << " reader " << t << " query " << q;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].url, want[i].url)
              << "round " << round << " reader " << t << " rank " << i;
          EXPECT_EQ(Bits(got[i].score), Bits(want[i].score))
              << "round " << round << " reader " << t << " rank " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dls::net
