// Micro-benchmarks (google-benchmark) of the real data-structure hot paths
// backing the simulated dataplane: rings, pool, header/full copies, LPM,
// ACL, live egress collection, shard flow accounting, AES, checksums,
// merging and policy compilation. These measure the actual C++
// implementations on this host (not simulated time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "acl/acl.hpp"
#include "crypto/aes128.hpp"
#include "dpi/aho_corasick.hpp"
#include "lpm/lpm_table.hpp"
#include "nfs/ids.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/frame_list.hpp"
#include "packet/packet_pool.hpp"
#include "common/rng.hpp"
#include "policy/parser.hpp"
#include "telemetry/flow_observatory.hpp"
#include "ring/spsc_ring.hpp"

namespace nfp {
namespace {

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<void*> ring(1024);
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push(&x));
    void* out;
    benchmark::DoNotOptimize(ring.pop(out));
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_PoolAllocRelease(benchmark::State& state) {
  PacketPool pool(256);
  for (auto _ : state) {
    Packet* p = pool.alloc(64);
    benchmark::DoNotOptimize(p);
    pool.release(p);
  }
}
BENCHMARK(BM_PoolAllocRelease);

void BM_HeaderOnlyCopy(benchmark::State& state) {
  PacketPool pool(8);
  PacketSpec spec;
  spec.frame_size = static_cast<std::size_t>(state.range(0));
  Packet* src = build_packet(pool, spec);
  for (auto _ : state) {
    Packet* copy = pool.clone_header_only(*src);
    benchmark::DoNotOptimize(copy);
    pool.release(copy);
  }
  pool.release(src);
}
BENCHMARK(BM_HeaderOnlyCopy)->Arg(64)->Arg(724)->Arg(1500);

void BM_FullCopy(benchmark::State& state) {
  PacketPool pool(8);
  PacketSpec spec;
  spec.frame_size = static_cast<std::size_t>(state.range(0));
  Packet* src = build_packet(pool, spec);
  for (auto _ : state) {
    Packet* copy = pool.clone_full(*src);
    benchmark::DoNotOptimize(copy);
    pool.release(copy);
  }
  pool.release(src);
}
BENCHMARK(BM_FullCopy)->Arg(64)->Arg(724)->Arg(1500);

void BM_LpmLookup(benchmark::State& state) {
  const LpmTable table = LpmTable::with_synthetic_routes(1000);
  u32 addr = 0x0A000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(addr));
    addr = addr * 2654435761u + 1;
  }
}
BENCHMARK(BM_LpmLookup);

// The firewall's ACL at 100 and 1,000 synthetic rules: the compiled
// bit-vector lookup, and as its baseline a first-match scan over the same
// rules (`BM_NaiveScan100Sigs` keeps the naive DPI scan the same way). Both
// see the same run-time tuple stream.
FiveTuple acl_bench_tuple(u32 x) {
  return {x, x * 3, static_cast<u16>(x), static_cast<u16>(x * 7), 6};
}

void BM_AclEvaluate(benchmark::State& state) {
  const AclTable table =
      AclTable::with_synthetic_rules(static_cast<std::size_t>(state.range(0)));
  u32 x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.evaluate(acl_bench_tuple(x)));
    x = x * 2654435761u + 1;
  }
}
BENCHMARK(BM_AclEvaluate)->Arg(100)->Arg(1000);

void BM_AclLinearScan(benchmark::State& state) {
  const AclTable table =
      AclTable::with_synthetic_rules(static_cast<std::size_t>(state.range(0)));
  u32 x = 1;
  for (auto _ : state) {
    const FiveTuple t = acl_bench_tuple(x);
    AclAction action = AclAction::kPass;  // the synthetic table's default
    for (const AclRule& rule : table.rules()) {
      if (rule.matches(t)) {
        action = rule.action;
        break;
      }
    }
    benchmark::DoNotOptimize(action);
    x = x * 2654435761u + 1;
  }
}
BENCHMARK(BM_AclLinearScan)->Arg(100)->Arg(1000);

// Compiling the same rules from a vector, with the index's size; and
// building the 100-rule table by add(), one rebuild per rule.
void BM_AclBuild(benchmark::State& state) {
  const std::vector<AclRule> rules =
      AclTable::with_synthetic_rules(static_cast<std::size_t>(state.range(0)))
          .rules();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const AclTable table(rules, AclAction::kPass);
    bytes = table.index_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["index_kb"] = static_cast<double>(bytes) / 1024;
}
BENCHMARK(BM_AclBuild)->Arg(100)->Arg(1000);

void BM_AclAddEach(benchmark::State& state) {
  const std::vector<AclRule> rules =
      AclTable::with_synthetic_rules(static_cast<std::size_t>(state.range(0)))
          .rules();
  for (auto _ : state) {
    AclTable table;
    for (const AclRule& rule : rules) table.add(rule);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_AclAddEach)->Arg(100);

// Live egress at 64 and 724 B: 4,096 delivered frames collected into a
// FrameList (one memcpy and one end offset each, one block per 256 KiB),
// then dropped; and as its baseline the representation LiveResult::outputs
// had before, one heap std::vector<u8> per frame.
constexpr std::size_t kEgressFrames = 4096;

void BM_EgressCollect(benchmark::State& state) {
  const std::vector<u8> frame(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    FrameList outputs;
    for (std::size_t i = 0; i < kEgressFrames; ++i) outputs.push(frame);
    benchmark::DoNotOptimize(outputs);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kEgressFrames));
}
BENCHMARK(BM_EgressCollect)->Arg(64)->Arg(724);

void BM_EgressPerFrameVectors(benchmark::State& state) {
  const std::vector<u8> frame(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    std::vector<std::vector<u8>> outputs;
    for (std::size_t i = 0; i < kEgressFrames; ++i) {
      outputs.emplace_back(frame.data(), frame.data() + frame.size());
    }
    benchmark::DoNotOptimize(outputs);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kEgressFrames));
}
BENCHMARK(BM_EgressPerFrameVectors)->Arg(64)->Arg(724);

// Flow accounting on a shard worker: the FlowAccumulator and the shard's
// ShardFlowAccountant over a pre-generated stream of flow refs, flushed
// where the worker flushes (a full probe run inside add(), the
// kFlushPackets backstop), in ns per packet. The flows are the ones the
// director sends to shard 0 (hash % shards == 0). uniform341 is an
// ns-small shard's ~341 uniform flows: epochs end at the backstop and
// fold 341 samples. zipf10k is a ct-churn shard's 10k zipf-0.8 flows: a
// probe run fills about every 29k packets, and nearly all of the ~7k
// samples each such fold takes displace the Space-Saving minimum. single
// folds after every packet, each a new flow into a full table: what every
// idle-streak flush of a paced workload costs.
struct FoldMix {
  std::size_t flows = 0;
  double zipf_s = 0;  // 0: uniform
  std::size_t shards = 1;
  bool fold_each = false;
};

constexpr std::size_t kFoldStream = std::size_t{1} << 18;

std::vector<FlowRef> fold_stream(const FoldMix& mix) {
  std::vector<FlowRef> flows;
  for (u32 id = 0; flows.size() < mix.flows; ++id) {
    FlowRef f;
    f.tuple = {0x0A000000u + id, 0xC0A80000u + (id % 251),
               static_cast<u16>(1024 + id % 50'000), 443, 6};
    f.hash = hash_five_tuple(f.tuple);
    f.valid = true;
    if (f.hash % mix.shards == 0) flows.push_back(f);
  }
  std::vector<double> cdf(flows.size());
  double total = 0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -mix.zipf_s);
    cdf[k] = total;
  }
  Rng rng(7);
  std::vector<FlowRef> stream(kFoldStream);
  for (FlowRef& ref : stream) {
    const auto it =
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total);
    const auto rank = static_cast<std::size_t>(it - cdf.begin());
    ref = flows[std::min(rank, flows.size() - 1)];
  }
  return stream;
}

void BM_FlowFold(benchmark::State& state, FoldMix mix) {
  const std::vector<FlowRef> stream = fold_stream(mix);
  telemetry::ShardFlowAccountant acct(128, 1);
  telemetry::FlowAccumulator acc;
  std::size_t i = 0;
  const auto step = [&] {
    acc.add(stream[i], 64, 0, acct);
    if (mix.fold_each ||
        acc.pending() >= telemetry::FlowAccumulator::kFlushPackets) {
      acc.flush(acct);
    }
    i = (i + 1) & (kFoldStream - 1);
  };
  for (std::size_t w = 0; w < kFoldStream; ++w) step();  // fill the table
  for (auto _ : state) {
    step();
    benchmark::DoNotOptimize(acc.pending());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_FlowFold, uniform341, FoldMix{341, 0.0, 3, false});
BENCHMARK_CAPTURE(BM_FlowFold, zipf10k, FoldMix{10'000, 0.8, 2, false});
BENCHMARK_CAPTURE(BM_FlowFold, single, FoldMix{65'536, 0.0, 1, true});

void BM_AesEncryptBlock(benchmark::State& state) {
  Aes128 aes(Aes128::Key{0x2b});
  u8 block[16] = {1, 2, 3};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesCtrPayload(benchmark::State& state) {
  Aes128 aes(Aes128::Key{0x2b});
  std::vector<u8> payload(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    aes.ctr_crypt(0x1234, payload);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCtrPayload)->Arg(64)->Arg(724)->Arg(1460);

// Multi-pattern matching over the IDS's own 100 signatures: the
// Aho-Corasick single pass vs the naive per-signature scan, on two 724-B
// payloads (the Benson mix's mean frame). `no_start` holds only bytes that
// start no signature, so the automaton stays at its root; `sig_letters`
// holds random signature letters, so it walks the DFA on every byte.
// Neither holds a whole signature.
enum class DpiPayload { kNoStart, kSigLetters };

std::string dpi_payload(const std::vector<std::string>& sigs,
                        DpiPayload kind) {
  std::array<bool, 256> starts{};
  std::array<bool, 256> letters{};
  for (const std::string& sig : sigs) {
    starts[static_cast<u8>(sig.front())] = true;
    for (const char c : sig) letters[static_cast<u8>(c)] = true;
  }
  std::string alphabet;
  for (std::size_t b = 0; b < 256; ++b) {
    if (kind == DpiPayload::kNoStart ? !starts[b] : letters[b]) {
      alphabet.push_back(static_cast<char>(b));
    }
  }
  Rng rng(11);
  std::string payload;
  for (int i = 0; i < 724; ++i) {
    payload.push_back(alphabet[rng.bounded(alphabet.size())]);
  }
  return payload;
}

bool naive_contains(const std::vector<std::string>& sigs,
                    const std::string& payload) {
  bool hit = false;
  for (const std::string& sig : sigs) {
    hit |= payload.find(sig) != std::string::npos;
  }
  return hit;
}

void BM_AhoCorasick100Sigs(benchmark::State& state, DpiPayload kind) {
  const auto sigs = Ids::synthetic_signatures(100, 3);
  const std::string payload = dpi_payload(sigs, kind);
  if (naive_contains(sigs, payload)) {
    state.SkipWithError("payload holds a signature");
    return;
  }
  const AhoCorasick ac(sigs);
  const std::span<const u8> bytes(
      reinterpret_cast<const u8*>(payload.data()), payload.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.contains(bytes));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(payload.size()));
}
BENCHMARK_CAPTURE(BM_AhoCorasick100Sigs, no_start, DpiPayload::kNoStart);
BENCHMARK_CAPTURE(BM_AhoCorasick100Sigs, sig_letters, DpiPayload::kSigLetters);

void BM_NaiveScan100Sigs(benchmark::State& state, DpiPayload kind) {
  const auto sigs = Ids::synthetic_signatures(100, 3);
  const std::string payload = dpi_payload(sigs, kind);
  if (naive_contains(sigs, payload)) {
    state.SkipWithError("payload holds a signature");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_contains(sigs, payload));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(payload.size()));
}
BENCHMARK_CAPTURE(BM_NaiveScan100Sigs, no_start, DpiPayload::kNoStart);
BENCHMARK_CAPTURE(BM_NaiveScan100Sigs, sig_letters, DpiPayload::kSigLetters);

void BM_Ipv4Checksum(benchmark::State& state) {
  u8 header[20] = {0x45, 0, 0, 0x73};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ipv4_checksum(header));
  }
}
BENCHMARK(BM_Ipv4Checksum);

void BM_PolicyCompile(benchmark::State& state) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  const auto policy = parse_policy(
      "policy p\nchain(vpn, monitor, ids, firewall, gateway, lb)");
  for (auto _ : state) {
    auto graph = compile_policy(policy.value(), table);
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_PolicyParse(benchmark::State& state) {
  const char* text =
      "policy p\nposition(vpn, first)\norder(firewall, before, lb)\n"
      "order(monitor, before, lb)\npriority(ips > firewall)\nnf(shaper)";
  for (auto _ : state) {
    auto policy = parse_policy(text);
    benchmark::DoNotOptimize(policy);
  }
}
BENCHMARK(BM_PolicyParse);

}  // namespace
}  // namespace nfp

BENCHMARK_MAIN();
