#include "orch/compiler.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "policy/conflict.hpp"

namespace nfp {

namespace {

// Oriented relation between two body NFs. `nf1` is the logically-earlier
// side (the Order direction, the low-priority side of a Priority rule, or
// declaration order for rule-free pairs).
struct Relation {
  int nf1 = 0;
  int nf2 = 0;
  bool has_rule = false;
  bool forced_parallel = false;  // Priority rule: never sequentialize
  PairAnalysis analysis;
};

bool touches_payload_profile(const ActionProfile& p) {
  return p.reads(Field::kPayload) || p.writes(Field::kPayload);
}

// Conflict analysis for Priority-forced pairs: the operator declared the
// NFs parallel, so drop interactions are *not* obstacles (the merger
// resolves them by priority through nil packets) and "not parallelizable"
// verdicts on non-drop action pairs degrade to copies instead of
// sequencing. Returns the conflicts plus whether any pair had to be
// force-degraded (worth a warning).
struct ForcedAnalysis {
  PairAnalysis analysis;
  bool degraded = false;
};

ForcedAnalysis forced_conflicts(const ActionProfile& a, const ActionProfile& b,
                                const AnalysisOptions& opt) {
  ForcedAnalysis out;
  for (const Action& a1 : a.actions()) {
    for (const Action& a2 : b.actions()) {
      if (a1.type == ActionType::kDrop || a2.type == ActionType::kDrop) {
        continue;  // resolved by the merger's priority drop resolution
      }
      switch (action_pair_parallelism(a1, a2, opt)) {
        case PairParallelism::kNoCopy:
          break;
        case PairParallelism::kWithCopy:
          out.analysis.conflicts.push_back({a1, a2});
          break;
        case PairParallelism::kNotParallelizable:
          out.analysis.conflicts.push_back({a1, a2});
          out.degraded = true;
          break;
      }
    }
  }
  return out;
}

}  // namespace

Result<ServiceGraph> compile_policy(const Policy& policy,
                                    const ActionTable& table,
                                    const CompilerOptions& options,
                                    CompileReport* report) {
  using R = Result<ServiceGraph>;
  CompileReport local_report;
  CompileReport& rep = report != nullptr ? *report : local_report;

  const Status valid = validate_policy(policy);
  if (!valid) return R::error("policy conflict: " + valid.message());

  const std::vector<std::string> names = policy.nf_names();
  if (names.empty()) return R::error("policy names no NFs");
  for (const auto& name : names) {
    if (!table.contains(name)) {
      return R::error("NF '" + name + "' is not in the action table");
    }
  }

  // --- Partition into head / body / tail -----------------------------------
  std::vector<std::string> firsts, lasts;
  for (const Rule& rule : policy.rules()) {
    if (const auto* pos = std::get_if<PositionRule>(&rule)) {
      auto& bucket = pos->placement == Placement::kFirst ? firsts : lasts;
      if (std::find(bucket.begin(), bucket.end(), pos->nf) == bucket.end()) {
        bucket.push_back(pos->nf);
      }
    }
  }
  const auto pinned = [&](const std::string& nf) {
    return std::find(firsts.begin(), firsts.end(), nf) != firsts.end() ||
           std::find(lasts.begin(), lasts.end(), nf) != lasts.end();
  };

  std::vector<std::string> body;
  for (const auto& name : names) {
    if (!pinned(name)) body.push_back(name);
  }
  const int n = static_cast<int>(body.size());
  std::map<std::string, int> body_index;
  for (int i = 0; i < n; ++i) body_index[body[static_cast<std::size_t>(i)]] = i;

  // --- Build oriented pair relations ----------------------------------------
  // key: (min index, max index)
  std::map<std::pair<int, int>, Relation> relations;
  const auto rel_key = [](int a, int b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };

  const auto analyze = [&](const std::string& a, const std::string& b) {
    return analyze_pair(table.profile(a), table.profile(b), options.analysis);
  };

  for (const Rule& rule : policy.rules()) {
    const OrderRule* o = std::get_if<OrderRule>(&rule);
    const PriorityRule* p = std::get_if<PriorityRule>(&rule);
    if (o == nullptr && p == nullptr) continue;
    const std::string& nf1 = o != nullptr ? o->before : p->low;
    const std::string& nf2 = o != nullptr ? o->after : p->high;

    if (!body_index.contains(nf1) || !body_index.contains(nf2)) {
      // The pair involves a Position-pinned NF. Head/tail placement already
      // sequences it; warn if the rule direction contradicts the pinning.
      const bool nf1_last =
          std::find(lasts.begin(), lasts.end(), nf1) != lasts.end();
      const bool nf2_first =
          std::find(firsts.begin(), firsts.end(), nf2) != firsts.end();
      if (o != nullptr && (nf1_last || nf2_first)) {
        rep.warnings.push_back("rule " + rule_to_string(rule) +
                               " contradicts a Position pin; the Position "
                               "rule wins");
      }
      continue;
    }
    const int i = body_index[nf1];
    const int j = body_index[nf2];
    Relation r;
    r.nf1 = i;
    r.nf2 = j;
    r.has_rule = true;
    r.forced_parallel = p != nullptr;
    if (r.forced_parallel) {
      ForcedAnalysis forced = forced_conflicts(
          table.profile(nf1), table.profile(nf2), options.analysis);
      if (forced.degraded) {
        rep.warnings.push_back(
            "Priority(" + nf2 + " > " + nf1 +
            "): the pair is not parallelizable by dependency analysis; "
            "forcing parallel execution with packet copies");
      }
      r.analysis = std::move(forced.analysis);
    } else {
      r.analysis = analyze(nf1, nf2);
    }
    relations[rel_key(i, j)] = r;
  }

  // A linear order embedding every Order rule (topological sort of the
  // rule edges, declaration order as tie-break). Rule-free pairs that end
  // up sequential are oriented along this order, so the combined edge set
  // can never be cyclic: a tie-broken sequential pair follows the linear
  // order, and an orientation chosen *against* it is only chosen when it is
  // strictly more parallelizable — in which case it contributes no
  // sequential edge at all.
  std::vector<int> linear_pos(static_cast<std::size_t>(n), 0);
  {
    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    std::vector<int> indegree(static_cast<std::size_t>(n), 0);
    for (const auto& [key, r] : relations) {
      (void)key;
      succ[static_cast<std::size_t>(r.nf1)].push_back(r.nf2);
      ++indegree[static_cast<std::size_t>(r.nf2)];
    }
    std::vector<bool> placed(static_cast<std::size_t>(n), false);
    for (int pos = 0; pos < n; ++pos) {
      int pick = -1;
      for (int i = 0; i < n; ++i) {
        if (!placed[static_cast<std::size_t>(i)] &&
            indegree[static_cast<std::size_t>(i)] == 0) {
          pick = i;
          break;  // smallest declaration index first
        }
      }
      if (pick < 0) {
        // Rule cycle: validate_policy() catches Order cycles, so this can
        // only be a contradictory Order/Priority mix; fall back to
        // declaration order for the remainder.
        for (int i = 0; i < n; ++i) {
          if (!placed[static_cast<std::size_t>(i)]) {
            linear_pos[static_cast<std::size_t>(i)] = pos++;
            placed[static_cast<std::size_t>(i)] = true;
          }
        }
        break;
      }
      linear_pos[static_cast<std::size_t>(pick)] = pos;
      placed[static_cast<std::size_t>(pick)] = true;
      for (const int next : succ[static_cast<std::size_t>(pick)]) {
        --indegree[static_cast<std::size_t>(next)];
      }
    }
  }

  // Reachability over the rule edges (transitive closure): a rule-free
  // pair whose NFs are connected through rules must keep the implied
  // direction.
  std::vector<std::vector<bool>> reach(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  for (const auto& [key, r] : relations) {
    (void)key;
    reach[static_cast<std::size_t>(r.nf1)][static_cast<std::size_t>(r.nf2)] =
        true;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) {
        continue;
      }
      for (int j = 0; j < n; ++j) {
        if (reach[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)]) {
          reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              true;
        }
      }
    }
  }

  // Rule-free pairs: when the rules already imply a direction (through
  // reachability) it is kept; otherwise both orientations are analyzed and
  // the friendlier one wins (no-copy over with-copy over sequential) —
  // this is how Fig 1(b) parallelizes Monitor with the dropping Firewall
  // despite no rule connecting them. Ties follow the rule-consistent
  // linear order. In `safe_orientations` mode every free pair follows the
  // linear order outright (the cycle-recovery fallback).
  const auto verdict_rank = [](const PairAnalysis& a) {
    switch (a.verdict()) {
      case PairParallelism::kNoCopy: return 0;
      case PairParallelism::kWithCopy: return 1;
      case PairParallelism::kNotParallelizable: return 2;
    }
    return 3;
  };
  const auto orient_free_pairs = [&](bool safe_orientations) {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const auto existing = relations.find(rel_key(i, j));
        if (existing != relations.end() && existing->second.has_rule) {
          continue;
        }
        int fwd1, fwd2;
        bool forced = false;
        if (reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          fwd1 = i;
          fwd2 = j;
          forced = true;
        } else if (reach[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(i)]) {
          fwd1 = j;
          fwd2 = i;
          forced = true;
        } else if (linear_pos[static_cast<std::size_t>(i)] <
                   linear_pos[static_cast<std::size_t>(j)]) {
          fwd1 = i;
          fwd2 = j;
        } else {
          fwd1 = j;
          fwd2 = i;
        }
        Relation r;
        PairAnalysis forward = analyze(body[static_cast<std::size_t>(fwd1)],
                                       body[static_cast<std::size_t>(fwd2)]);
        PairAnalysis backward = analyze(body[static_cast<std::size_t>(fwd2)],
                                        body[static_cast<std::size_t>(fwd1)]);
        if (!forced && !safe_orientations &&
            verdict_rank(backward) < verdict_rank(forward)) {
          r.nf1 = fwd2;
          r.nf2 = fwd1;
          r.analysis = std::move(backward);
        } else {
          r.nf1 = fwd1;
          r.nf2 = fwd2;
          r.analysis = std::move(forward);
        }
        relations[rel_key(i, j)] = r;
      }
    }
  };

  // --- Constraint edges & level assignment -----------------------------------
  // Every oriented pair contributes a constraint: weight 1 ("strictly
  // after") for pairs that must stay sequential, weight 0 ("not before")
  // for parallelizable pairs — if the scheduler separates a parallelizable
  // Order(a, b) pair across stages, a must still come first, because
  // "parallel ≡ sequential(a→b)" says nothing about sequential(b→a).
  std::vector<int> level(static_cast<std::size_t>(n), 0);
  const auto assign_levels = [&](bool record_decisions) -> bool {
    std::vector<std::tuple<int, int, int>> edges;  // (from, to, weight)
    for (const auto& [key, r] : relations) {
      (void)key;
      const std::string& name1 = body[static_cast<std::size_t>(r.nf1)];
      const std::string& name2 = body[static_cast<std::size_t>(r.nf2)];
      PairDecision decision{name1, name2, r.analysis.verdict(),
                            r.forced_parallel, r.analysis.conflicts.size()};
      bool sequential = false;
      if (!r.forced_parallel) {
        if (!r.analysis.parallelizable) {
          sequential = true;
        } else if (r.analysis.needs_copy() &&
                   !options.parallelize_with_copy) {
          sequential = true;
          decision.verdict = PairParallelism::kNotParallelizable;
        } else if (options.hard_order_rules && r.has_rule) {
          sequential = true;
          decision.verdict = PairParallelism::kNotParallelizable;
        }
      }
      edges.emplace_back(r.nf1, r.nf2, sequential ? 1 : 0);
      if (sequential && !r.has_rule && record_decisions) {
        rep.warnings.push_back("NFs '" + name1 + "' and '" + name2 +
                               "' have no ordering rule but depend on each "
                               "other; sequencing by the rule-consistent "
                               "order");
      }
      if (record_decisions) rep.decisions.push_back(decision);
    }

    std::fill(level.begin(), level.end(), 0);
    bool changed = true;
    for (int pass = 0; changed && pass <= n + 1; ++pass) {
      changed = false;
      for (const auto& [u, v, w] : edges) {
        const auto ui = static_cast<std::size_t>(u);
        const auto vi = static_cast<std::size_t>(v);
        if (level[vi] < level[ui] + w) {
          level[vi] = level[ui] + w;
          changed = true;
        }
      }
      if (pass == n + 1 && changed) return false;  // cyclic
    }
    return true;
  };

  orient_free_pairs(/*safe_orientations=*/false);
  if (!assign_levels(/*record_decisions=*/false)) {
    // A verdict-preferred backward orientation collided with the rules;
    // retry with every free pair following the rule-consistent order.
    orient_free_pairs(/*safe_orientations=*/true);
    if (!assign_levels(/*record_decisions=*/false)) {
      return R::error("ordering constraints are cyclic; adjust the policy");
    }
  }
  assign_levels(/*record_decisions=*/true);

  // --- Group into stages -------------------------------------------------------
  std::map<int, std::vector<int>> stages;  // level -> body indices (decl order)
  for (int i = 0; i < n; ++i) stages[level[static_cast<std::size_t>(i)]].push_back(i);

  // --- Emit the graph -----------------------------------------------------------
  ServiceGraph graph(policy.name());
  int instance_id = 0;
  u32 next_mid = 0;

  const auto emit_single = [&](const std::string& nf) {
    Segment seg;
    seg.mid = next_mid++;
    seg.nfs.push_back(StageNf{nf, instance_id++, 1, 0,
                              table.profile(nf).drops()});
    graph.segments().push_back(std::move(seg));
  };

  for (const auto& nf : firsts) emit_single(nf);

  for (const auto& [lvl, members] : stages) {
    (void)lvl;
    if (members.size() == 1) {
      emit_single(body[static_cast<std::size_t>(members.front())]);
      continue;
    }

    // Merge priority inside the stage: longest path over "wins" edges
    // (nf2 of each relation wins conflicts; for Order rules that is the
    // back NF, for Priority rules the high-priority NF — paper §3).
    const int m = static_cast<int>(members.size());
    std::vector<int> rank(static_cast<std::size_t>(m), 0);
    const auto member_pos = [&](int body_idx) {
      return static_cast<int>(
          std::find(members.begin(), members.end(), body_idx) -
          members.begin());
    };
    bool rank_changed = true;
    for (int pass = 0; rank_changed && pass <= m + 1; ++pass) {
      rank_changed = false;
      for (const auto& [key, r] : relations) {
        (void)key;
        const auto in_stage = [&](int idx) {
          return std::find(members.begin(), members.end(), idx) !=
                 members.end();
        };
        if (!in_stage(r.nf1) || !in_stage(r.nf2)) continue;
        const auto lo = static_cast<std::size_t>(member_pos(r.nf1));
        const auto hi = static_cast<std::size_t>(member_pos(r.nf2));
        if (rank[hi] < rank[lo] + 1) {
          rank[hi] = rank[lo] + 1;
          rank_changed = true;
        }
      }
      // A rank cycle (contradictory Order + Priority) converges on the cap;
      // ranks are then best-effort.
    }

    // Conflict edges (copy needed) between stage members.
    std::vector<std::vector<bool>> conflict(
        static_cast<std::size_t>(m),
        std::vector<bool>(static_cast<std::size_t>(m), false));
    bool any_forced = false;
    for (const auto& [key, r] : relations) {
      (void)key;
      const auto p1 = std::find(members.begin(), members.end(), r.nf1);
      const auto p2 = std::find(members.begin(), members.end(), r.nf2);
      if (p1 == members.end() || p2 == members.end()) continue;
      any_forced |= r.forced_parallel;
      if (r.analysis.needs_copy()) {
        const auto a = static_cast<std::size_t>(p1 - members.begin());
        const auto b = static_cast<std::size_t>(p2 - members.begin());
        conflict[a][b] = conflict[b][a] = true;
      }
    }
    // A payload writer may resize the packet, rewriting its length, the IP
    // total length and the checksums that every other NF's parse reads: it
    // shares its version with no one, or the pipelined plane's NF threads
    // would race on those bytes.
    for (std::size_t a = 0; a < conflict.size(); ++a) {
      if (!table.profile(body[static_cast<std::size_t>(members[a])])
               .writes(Field::kPayload)) {
        continue;
      }
      for (std::size_t b = 0; b < conflict.size(); ++b) {
        if (b != a) conflict[a][b] = conflict[b][a] = true;
      }
    }

    // Version colouring: payload-touching NFs first so they land on
    // version 1 whenever possible (versions that carry payload-touching NFs
    // need expensive full copies instead of 64 B header copies), then
    // declaration order.
    std::vector<int> colour_order;
    for (int pass = 0; pass < 2; ++pass) {
      for (int k = 0; k < m; ++k) {
        const auto& profile =
            table.profile(body[static_cast<std::size_t>(members[static_cast<std::size_t>(k)])]);
        const bool pin_first = touches_payload_profile(profile);
        if ((pass == 0) == pin_first) colour_order.push_back(k);
      }
    }
    std::vector<u8> version(static_cast<std::size_t>(m), 0);
    u8 max_version = 1;
    for (const int k : colour_order) {
      const auto ku = static_cast<std::size_t>(k);
      for (u8 c = 1;; ++c) {
        bool used = false;
        for (int other = 0; other < m; ++other) {
          const auto ou = static_cast<std::size_t>(other);
          if (version[ou] == c && conflict[ku][ou]) {
            used = true;
            break;
          }
        }
        if (!used) {
          version[ku] = c;
          max_version = std::max(max_version, c);
          break;
        }
      }
    }

    // Build the segment.
    Segment seg;
    seg.mid = next_mid++;
    seg.num_versions = max_version;
    for (int k = 0; k < m; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const std::string& nf = body[static_cast<std::size_t>(members[ku])];
      seg.nfs.push_back(StageNf{nf, instance_id++, version[ku], rank[ku],
                                table.profile(nf).drops()});
      // Header-Only Copying cannot serve payload-touching NFs; and with
      // OP#2 disabled altogether, every copy is a full copy.
      if (version[ku] != 1 &&
          (!options.analysis.header_only_copying ||
           touches_payload_profile(table.profile(nf)))) {
        seg.full_copy_mask |= static_cast<u16>(1u << version[ku]);
      }
    }
    seg.merge.total_count = static_cast<u32>(m);
    seg.merge.drop_resolution =
        any_forced ? DropResolution::kPriority : DropResolution::kAnyDrop;

    // Merge operations: for every written header field, the highest-priority
    // writer's version supplies the value; AH changes sync from their
    // version (paper §5.3).
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      const Field field = static_cast<Field>(f);
      if (field == Field::kAhHeader || field == Field::kChecksum) continue;
      int winner = -1;
      for (int k = 0; k < m; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        const auto& profile =
            table.profile(body[static_cast<std::size_t>(members[ku])]);
        if (!profile.writes(field)) continue;
        if (winner < 0 ||
            rank[static_cast<std::size_t>(k)] >
                rank[static_cast<std::size_t>(winner)] ||
            (rank[static_cast<std::size_t>(k)] ==
                 rank[static_cast<std::size_t>(winner)] &&
             k > winner)) {
          winner = k;
        }
      }
      if (winner >= 0 && version[static_cast<std::size_t>(winner)] != 1) {
        seg.merge.ops.push_back(MergeOp{
            MergeOp::Kind::kModify, version[static_cast<std::size_t>(winner)],
            field});
      }
    }
    for (int k = 0; k < m; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const auto& profile =
          table.profile(body[static_cast<std::size_t>(members[ku])]);
      if (profile.adds_removes() && version[ku] != 1) {
        seg.merge.ops.push_back(
            MergeOp{MergeOp::Kind::kSyncAh, version[ku], Field::kAhHeader});
      }
    }

    graph.segments().push_back(std::move(seg));
  }

  for (const auto& nf : lasts) emit_single(nf);

  return graph;
}

}  // namespace nfp
