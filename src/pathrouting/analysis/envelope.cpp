#include "pathrouting/analysis/envelope.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/guaranteed.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::analysis {

namespace {

using bilinear::BilinearAlgorithm;
using bilinear::Side;
using u128 = unsigned __int128;

/// Saturation ceiling for the exact maximum track: high enough that a
/// capped value is unambiguously >= 2^64, low enough that sums of two
/// capped values cannot overflow the 128-bit carrier.
constexpr u128 kSatCap = u128{1} << 126;

u128 sat_mul(u128 x, u128 y) {
  if (x == 0 || y == 0) return 0;
  if (x > kSatCap / y) return kSatCap;
  return x * y;
}

/// x >= 2^64 (exact on the saturating track: capped values qualify).
bool reaches_u64(u128 x) { return (x >> 64) != 0; }

/// base^exp on the saturating track, for exp = 0..kmax.
std::vector<u128> sat_pow_table(std::uint64_t base, int kmax) {
  std::vector<u128> pow(static_cast<std::size_t>(kmax) + 1, 1);
  for (int t = 1; t <= kmax; ++t) {
    pow[static_cast<std::size_t>(t)] =
        sat_mul(pow[static_cast<std::size_t>(t) - 1], base);
  }
  return pow;
}

std::vector<Wrapped> wrap_pow_table(std::uint64_t base, int kmax) {
  std::vector<Wrapped> pow(static_cast<std::size_t>(kmax) + 1,
                           Wrapped{1, false});
  for (int t = 1; t <= kmax; ++t) {
    pow[static_cast<std::size_t>(t)] =
        wrap_mul(pow[static_cast<std::size_t>(t) - 1], Wrapped{base, false});
  }
  return pow;
}

/// Trivial (single-coefficient-1) encoding rows per side, as the memo
/// engine derives them for the Theorem-2 meta accounting.
std::vector<std::uint8_t> trivial_row_flags(const BilinearAlgorithm& alg,
                                            Side side) {
  std::vector<std::uint8_t> triv(static_cast<std::size_t>(alg.b()), 0);
  for (int q = 0; q < alg.b(); ++q) {
    triv[static_cast<std::size_t>(q)] =
        bilinear::is_trivial_row(alg, side, q) ? 1 : 0;
  }
  return triv;
}

/// Pareto frontier of the exact (P_A, P_B) prefix-product pairs per
/// word length, kept only to answer "what is the largest exact
/// P_A + P_B" (the decoding-rank candidate of the Lemma-3 scan). The
/// frontier of products of digit values stays tiny for the catalog
/// bases; the ceiling is a correctness guard, not a budget.
std::vector<u128> pareto_sum_max(const std::vector<std::uint64_t>& m_a,
                                 const std::vector<std::uint64_t>& m_b, int b,
                                 int kmax) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> digit_pairs;
  for (int d = 0; d < b; ++d) {
    digit_pairs.emplace(m_a[static_cast<std::size_t>(d)],
                        m_b[static_cast<std::size_t>(d)]);
  }
  std::vector<std::pair<u128, u128>> frontier{{1, 1}};
  std::vector<u128> s_max(static_cast<std::size_t>(kmax) + 1, 2);
  for (int t = 1; t <= kmax; ++t) {
    std::vector<std::pair<u128, u128>> points;
    points.reserve(frontier.size() * digit_pairs.size());
    for (const auto& [pa, pb] : frontier) {
      for (const auto& [da, db] : digit_pairs) {
        points.emplace_back(sat_mul(pa, da), sat_mul(pb, db));
      }
    }
    // Pareto prune: sort by pa desc then pb desc; keep strictly
    // increasing pb (a point survives iff no other dominates it).
    std::sort(points.begin(), points.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second > y.second;
    });
    frontier.clear();
    u128 best_pb = 0;
    bool have = false;
    for (const auto& pt : points) {
      if (!have || pt.second > best_pb) {
        frontier.push_back(pt);
        best_pb = pt.second;
        have = true;
      }
    }
    PR_REQUIRE_MSG(frontier.size() <= (std::size_t{1} << 16),
                   "prefix-product Pareto frontier exploded; the envelope "
                   "analyzer assumes few distinct matched-pair counts");
    u128 best = 0;
    for (const auto& [pa, pb] : frontier) {
      best = std::max(best, pa + pb);  // both <= kSatCap: no overflow
    }
    s_max[static_cast<std::size_t>(t)] = best;
  }
  return s_max;
}

}  // namespace

Wrapped wrap_add(Wrapped x, Wrapped y) {
  Wrapped r;
  r.low = x.low + y.low;
  r.wrapped = x.wrapped || y.wrapped || r.low < x.low;
  return r;
}

Wrapped wrap_mul(Wrapped x, Wrapped y) {
  const bool x_zero = !x.wrapped && x.low == 0;
  const bool y_zero = !y.wrapped && y.low == 0;
  Wrapped r;
  r.low = x.low * y.low;
  if (x_zero || y_zero) return r;  // exact zero annihilates wrap
  r.wrapped = x.wrapped || y.wrapped ||
              (static_cast<u128>(x.low) * static_cast<u128>(y.low)) >> 64 != 0;
  return r;
}

Wrapped wrap_pow(std::uint64_t base, int exp) {
  Wrapped r{1, false};
  for (int t = 0; t < exp; ++t) r = wrap_mul(r, Wrapped{base, false});
  return r;
}

Wrapped machine_summa_total_words(std::uint64_t grid, std::uint64_t nb) {
  if (grid < 2) return {};
  return wrap_mul(
      wrap_mul(Wrapped{2}, wrap_mul(Wrapped{grid}, Wrapped{grid})),
      wrap_mul(Wrapped{grid - 1}, wrap_mul(Wrapped{nb}, Wrapped{nb})));
}

Wrapped machine_summa_bandwidth(std::uint64_t grid, std::uint64_t nb) {
  if (grid < 2) return {};
  const std::uint64_t slices = grid >= 3 ? 4 : 2;
  return wrap_mul(wrap_mul(Wrapped{slices}, Wrapped{grid}),
                  wrap_mul(Wrapped{nb}, Wrapped{nb}));
}

Wrapped machine_strassen_total_words(std::uint64_t b, std::uint64_t half) {
  if (b < 2) return {};
  return wrap_mul(Wrapped{3},
                  wrap_mul(Wrapped{b - 1},
                           wrap_mul(Wrapped{half}, Wrapped{half})));
}

std::uint64_t QuantityEnvelope::low_at(int k) const {
  PR_REQUIRE_MSG(k >= 1 && k <= value_kmax,
                 "envelope value queried outside the analyzed range");
  return low[static_cast<std::size_t>(k) - 1];
}

const QuantityEnvelope* AlgorithmEnvelopes::find(std::string_view name) const {
  for (const QuantityEnvelope& q : quantities) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

int AlgorithmEnvelopes::first_wrap_for_kind(std::string_view kind_prefix) const {
  int best = 0;
  for (const QuantityEnvelope& q : quantities) {
    if (!std::string_view(q.name).starts_with(kind_prefix)) continue;
    if (q.first_wrap_k == 0) continue;
    if (best == 0 || q.first_wrap_k < best) best = q.first_wrap_k;
  }
  return best;
}

AlgorithmEnvelopes compute_envelopes(const BilinearAlgorithm& alg,
                                     const EnvelopeOptions& options) {
  const int n0 = alg.n0();
  const std::uint64_t a = static_cast<std::uint64_t>(alg.a());
  const std::uint64_t b = static_cast<std::uint64_t>(alg.b());
  const int scan_k = options.wrap_scan_kmax;
  const int val_k = std::min(options.value_kmax, scan_k);
  PR_REQUIRE_MSG(scan_k >= 1 && val_k >= 1, "envelope depths must be >= 1");

  const routing::ChainRouter router(alg);
  const std::vector<std::uint64_t> m_a =
      routing::matched_pair_counts(alg, Side::A, router.matching(Side::A));
  const std::vector<std::uint64_t> m_b =
      routing::matched_pair_counts(alg, Side::B, router.matching(Side::B));
  const std::vector<std::uint8_t> triv_a = trivial_row_flags(alg, Side::A);
  const std::vector<std::uint8_t> triv_b = trivial_row_flags(alg, Side::B);

  AlgorithmEnvelopes env;
  env.algorithm = alg.name();
  env.has_decode = bilinear::decoding_components(alg) == 1;

  // Claim-1 D_1 visit tables, as the memo engine derives them.
  std::vector<std::uint64_t> cpint, co;
  std::uint64_t cpint_sum = 0, co_sum = 0;
  int d1_size = 0;
  if (env.has_decode) {
    const routing::DecodeRouter decoder(alg);
    d1_size = decoder.d1_size();
    cpint.assign(static_cast<std::size_t>(b), 0);
    co.assign(static_cast<std::size_t>(a), 0);
    for (int q = 0; q < alg.b(); ++q) {
      for (int e = 0; e < alg.a(); ++e) {
        const std::vector<int>& path = decoder.d1_path(q, e);
        for (std::size_t i = 1; i < path.size(); ++i) {
          auto& table = i % 2 == 1 ? co : cpint;
          ++table[static_cast<std::size_t>(path[i])];
        }
      }
    }
    for (const std::uint64_t c : cpint) cpint_sum += c;
    for (const std::uint64_t c : co) co_sum += c;
  }

  const std::vector<Wrapped> wpow_a = wrap_pow_table(a, scan_k);
  const std::vector<Wrapped> wpow_b = wrap_pow_table(b, scan_k);
  const std::vector<Wrapped> wpow_n0 =
      wrap_pow_table(static_cast<std::uint64_t>(n0), scan_k);

  // One closed-form quantity: engine-identical low words to val_k,
  // exact wrap flags to scan_k.
  const auto scalar = [&](std::string name, const auto& value_at) {
    QuantityEnvelope q;
    q.name = std::move(name);
    q.wrap_scan_kmax = scan_k;
    q.value_kmax = val_k;
    for (int k = 1; k <= scan_k; ++k) {
      const Wrapped v = value_at(k);
      if (k <= val_k) q.low.push_back(v.low);
      if (q.first_wrap_k == 0 && v.wrapped) q.first_wrap_k = k;
    }
    env.quantities.push_back(std::move(q));
  };

  scalar("chain.num_chains", [&](int k) {
    return wrap_mul(Wrapped{2, false}, wrap_pow(a * static_cast<std::uint64_t>(n0), k));
  });
  scalar("chain.total_hits", [&](int k) {
    return wrap_mul(
        wrap_mul(Wrapped{2, false}, wrap_pow(a * static_cast<std::uint64_t>(n0), k)),
        Wrapped{static_cast<std::uint64_t>(2 * k + 2), false});
  });
  scalar("chain.l3_bound", [&](int k) {
    return wrap_mul(Wrapped{2, false}, wpow_n0[static_cast<std::size_t>(k)]);
  });
  scalar("full.t2_paths", [&](int k) {
    return wrap_mul(wrap_mul(Wrapped{2, false}, wpow_a[static_cast<std::size_t>(k)]),
                    wpow_a[static_cast<std::size_t>(k)]);
  });
  scalar("full.t2_bound", [&](int k) {
    return wrap_mul(Wrapped{6, false}, wpow_a[static_cast<std::size_t>(k)]);
  });
  if (env.has_decode) {
    scalar("decode.num_paths", [&](int k) { return wrap_pow(a * b, k); });
    scalar("decode.total_hits", [&](int k) {
      const Wrapped paths = wrap_pow(a * b, k);
      const Wrapped level =
          wrap_mul(wrap_mul(Wrapped{static_cast<std::uint64_t>(k), false},
                            wrap_pow(a * b, k - 1)),
                   Wrapped{cpint_sum + co_sum, false});
      return wrap_add(paths, level);
    });
    scalar("decode.bound", [&](int k) {
      return wrap_mul(Wrapped{static_cast<std::uint64_t>(d1_size), false},
                      wrap_pow(std::max(a, b), k));
    });

    // decode.max: the Claim-1 per-vertex maximum. The candidate set is
    // closed-form (no class walk): the rank-0/rank-k forms and, per
    // interior rank, an independent product term (last path digit x)
    // plus an output term (leading position digit y). Low words need
    // the full (x, y) enumeration — under wrap the maximum of a sum is
    // not the sum of maxima — while the exact wrap flag does decompose
    // into the independent maxima, so the scan depth stays cheap.
    QuantityEnvelope dmax;
    dmax.name = "decode.max";
    dmax.wrap_scan_kmax = scan_k;
    dmax.value_kmax = val_k;
    std::uint64_t cpint_max = 0, co_max = 0;
    for (const std::uint64_t c : cpint) cpint_max = std::max(cpint_max, c);
    for (const std::uint64_t c : co) co_max = std::max(co_max, c);
    const std::vector<u128> spow_a = sat_pow_table(a, scan_k);
    const std::vector<u128> spow_b = sat_pow_table(b, scan_k);
    for (int k = 1; k <= scan_k; ++k) {
      if (k <= val_k) {
        std::uint64_t best = 0;
        for (std::uint64_t x = 0; x < b; ++x) {
          best = std::max(
              best, wrap_mul(Wrapped{a + cpint[x], false},
                             wpow_a[static_cast<std::size_t>(k) - 1])
                        .low);
        }
        for (int t = 1; t < k; ++t) {
          for (std::uint64_t x = 0; x < b; ++x) {
            const Wrapped down =
                wrap_mul(wrap_mul(Wrapped{cpint[x], false},
                                  wpow_b[static_cast<std::size_t>(t)]),
                         wpow_a[static_cast<std::size_t>(k - t) - 1]);
            for (std::uint64_t y = 0; y < a; ++y) {
              const Wrapped up =
                  wrap_mul(wrap_mul(Wrapped{co[y], false},
                                    wpow_b[static_cast<std::size_t>(t) - 1]),
                           wpow_a[static_cast<std::size_t>(k - t)]);
              best = std::max(best, wrap_add(down, up).low);
            }
          }
        }
        for (std::uint64_t y = 0; y < a; ++y) {
          best = std::max(best, wrap_mul(Wrapped{co[y], false},
                                         wpow_b[static_cast<std::size_t>(k) - 1])
                                    .low);
        }
        dmax.low.push_back(best);
      }
      if (dmax.first_wrap_k == 0) {
        u128 exact = sat_mul(a + cpint_max, spow_a[static_cast<std::size_t>(k) - 1]);
        for (int t = 1; t < k; ++t) {
          const u128 down =
              sat_mul(sat_mul(cpint_max, spow_b[static_cast<std::size_t>(t)]),
                      spow_a[static_cast<std::size_t>(k - t) - 1]);
          const u128 up =
              sat_mul(sat_mul(co_max, spow_b[static_cast<std::size_t>(t) - 1]),
                      spow_a[static_cast<std::size_t>(k - t)]);
          exact = std::max(exact, down + up);
        }
        exact = std::max(exact,
                         sat_mul(co_max, spow_b[static_cast<std::size_t>(k) - 1]));
        if (reaches_u64(exact)) dmax.first_wrap_k = k;
      }
    }
    env.quantities.push_back(std::move(dmax));
  }

  // --- Max-hit quantities over the Fact-1 digit-state classes. ---

  // Value track: the same refined class walk as the implicit engine,
  // with keys split by the wrap flag so the class lows stay exactly
  // the engine's class set.
  using ClassKey = std::pair<Wrapped, Wrapped>;
  std::set<std::pair<std::uint64_t, std::uint64_t>> digit_pairs;
  for (std::uint64_t d = 0; d < b; ++d) {
    digit_pairs.emplace(m_a[static_cast<std::size_t>(d)],
                        m_b[static_cast<std::size_t>(d)]);
  }
  std::vector<std::set<ClassKey>> levels;
  levels.push_back({ClassKey{Wrapped{1, false}, Wrapped{1, false}}});
  const int stats_goal = std::min(options.stats_value_kmax, scan_k);
  while (static_cast<int>(levels.size()) - 1 < stats_goal) {
    std::set<ClassKey> next;
    for (const ClassKey& cls : levels.back()) {
      for (const auto& [da, db] : digit_pairs) {
        next.emplace(wrap_mul(cls.first, Wrapped{da, false}),
                     wrap_mul(cls.second, Wrapped{db, false}));
      }
    }
    if (next.size() > options.max_classes) break;
    levels.push_back(std::move(next));
  }
  const int stats_val_k = static_cast<int>(levels.size()) - 1;

  // Exact maximum track: per word length t the largest exact P_side is
  // (max_d M_side[d])^t, and the largest exact P_A + P_B comes from the
  // Pareto frontier.
  std::uint64_t mmax_a = 0, mmax_b = 0;
  for (const std::uint64_t m : m_a) mmax_a = std::max(mmax_a, m);
  for (const std::uint64_t m : m_b) mmax_b = std::max(mmax_b, m);
  const std::vector<u128> a_max = sat_pow_table(mmax_a, scan_k);
  const std::vector<u128> b_max = sat_pow_table(mmax_b, scan_k);
  const std::vector<u128> s_max = pareto_sum_max(m_a, m_b, alg.b(), scan_k);
  const std::vector<u128> n0_pow =
      sat_pow_table(static_cast<std::uint64_t>(n0), scan_k);

  // Largest exact chain hit at rank k: S_max dominates both per-side
  // maxima (P_A <= P_A + P_B), so one sweep over word lengths covers
  // the encoding and decoding candidates alike.
  const auto chain_exact_max = [&](int k) {
    u128 best = 0;
    for (int t = 0; t <= k; ++t) {
      best = std::max(best, sat_mul(s_max[static_cast<std::size_t>(t)],
                                    n0_pow[static_cast<std::size_t>(k - t)]));
    }
    return best;
  };

  const auto max_quantity = [&](std::string name, const auto& low_value_at,
                                const auto& exact_ge_at) {
    QuantityEnvelope q;
    q.name = std::move(name);
    q.wrap_scan_kmax = scan_k;
    q.value_kmax = stats_val_k;
    for (int k = 1; k <= stats_val_k; ++k) q.low.push_back(low_value_at(k));
    for (int k = 1; k <= scan_k && q.first_wrap_k == 0; ++k) {
      if (exact_ge_at(k)) q.first_wrap_k = k;
    }
    env.quantities.push_back(std::move(q));
  };

  // The scan_copy_extremum candidate sweep, scaled by `mult` (1 for
  // Lemma 3, 3*n0^k for Theorem 2): max over encoding ranks of
  // mult * P_side(t) * n0^(k-t) and decoding ranks of
  // mult * (P_A + P_B)(k-t) * n0^t, in wrap arithmetic.
  const auto class_sweep_low = [&](int k, Wrapped mult) {
    std::uint64_t best = 0;
    for (int t = 0; t <= k; ++t) {
      // Words of length t feed the encoding candidates at rank t and —
      // as P_{k - t'} with t' = k - t — the decoding candidates at rank
      // t'; both carry the complementary power n0^(k-t).
      const Wrapped pow = wpow_n0[static_cast<std::size_t>(k - t)];
      for (const ClassKey& cls : levels[static_cast<std::size_t>(t)]) {
        best = std::max(best, wrap_mul(mult, wrap_mul(cls.first, pow)).low);
        best = std::max(best, wrap_mul(mult, wrap_mul(cls.second, pow)).low);
        best = std::max(
            best,
            wrap_mul(mult, wrap_mul(wrap_add(cls.first, cls.second), pow)).low);
      }
    }
    return best;
  };

  max_quantity(
      "chain.l3_max",
      [&](int k) { return class_sweep_low(k, Wrapped{1, false}); },
      [&](int k) { return reaches_u64(chain_exact_max(k)); });
  max_quantity(
      "full.t2_max",
      [&](int k) {
        return class_sweep_low(
            k, wrap_mul(Wrapped{3, false}, wpow_n0[static_cast<std::size_t>(k)]));
      },
      [&](int k) {
        return reaches_u64(
            sat_mul(sat_mul(3, n0_pow[static_cast<std::size_t>(k)]),
                    chain_exact_max(k)));
      });

  // Theorem-2 meta-root hits of the whole-graph view (r = k): per side
  // with a trivial encoding row, mult * n0^k plus the interior forms
  // mult * (P_side(t-1) * M_side[q]) * n0^(k-t) over nontrivial rows q.
  const bool has_triv_a =
      std::find(triv_a.begin(), triv_a.end(), std::uint8_t{1}) != triv_a.end();
  const bool has_triv_b =
      std::find(triv_b.begin(), triv_b.end(), std::uint8_t{1}) != triv_b.end();
  std::uint64_t nontriv_max_a = 0, nontriv_max_b = 0;
  for (std::uint64_t q = 0; q < b; ++q) {
    if (triv_a[q] == 0) nontriv_max_a = std::max(nontriv_max_a, m_a[q]);
    if (triv_b[q] == 0) nontriv_max_b = std::max(nontriv_max_b, m_b[q]);
  }
  const auto meta_low = [&](int k) {
    const Wrapped mult =
        wrap_mul(Wrapped{3, false}, wpow_n0[static_cast<std::size_t>(k)]);
    std::uint64_t best = 0;
    for (const Side side : {Side::A, Side::B}) {
      const bool has_trivial = side == Side::A ? has_triv_a : has_triv_b;
      if (!has_trivial) continue;
      const auto& m = side == Side::A ? m_a : m_b;
      const auto& triv = side == Side::A ? triv_a : triv_b;
      best = std::max(
          best, wrap_mul(mult, wpow_n0[static_cast<std::size_t>(k)]).low);
      for (int t = 1; t < k; ++t) {
        for (std::uint64_t q = 0; q < b; ++q) {
          if (triv[q] != 0) continue;
          for (const ClassKey& cls : levels[static_cast<std::size_t>(t) - 1]) {
            const Wrapped p = side == Side::A ? cls.first : cls.second;
            best = std::max(
                best, wrap_mul(mult, wrap_mul(wrap_mul(p, Wrapped{m[q], false}),
                                              wpow_n0[static_cast<std::size_t>(
                                                  k - t)]))
                          .low);
          }
        }
      }
    }
    return best;
  };
  const auto meta_exact_ge = [&](int k) {
    const u128 mult = sat_mul(3, n0_pow[static_cast<std::size_t>(k)]);
    for (const Side side : {Side::A, Side::B}) {
      const bool has_trivial = side == Side::A ? has_triv_a : has_triv_b;
      if (!has_trivial) continue;
      const auto& p_max = side == Side::A ? a_max : b_max;
      const std::uint64_t nontriv_max =
          side == Side::A ? nontriv_max_a : nontriv_max_b;
      if (reaches_u64(sat_mul(mult, n0_pow[static_cast<std::size_t>(k)]))) {
        return true;
      }
      for (int t = 1; t < k; ++t) {
        const u128 form = sat_mul(
            mult, sat_mul(sat_mul(p_max[static_cast<std::size_t>(t) - 1],
                                  nontriv_max),
                          n0_pow[static_cast<std::size_t>(k - t)]));
        if (reaches_u64(form)) return true;
      }
    }
    return false;
  };
  max_quantity("full.t2_meta", meta_low, meta_exact_ge);

  return env;
}

audit::AuditReport check_envelopes(const AlgorithmEnvelopes& envelopes,
                                   const routing::MemoRoutingEngine& engine,
                                   const EnvelopeCheckOptions& options) {
  audit::AuditReport report;
  report.mark_rule_run("analysis.k-envelope");
  const auto mismatch = [&](const std::string& quantity, int k,
                            std::uint64_t expected, std::uint64_t actual) {
    if (expected == actual) return;
    std::ostringstream os;
    os << envelopes.algorithm << ": envelope value of " << quantity
       << " diverges from the engine at k = " << k;
    audit::Diagnostic diag;
    diag.rule = "analysis.k-envelope";
    diag.message = os.str();
    diag.expected = expected;
    diag.actual = actual;
    diag.has_counts = true;
    report.add(diag);
  };

  if (envelopes.algorithm != engine.algorithm().name()) {
    audit::Diagnostic diag;
    diag.rule = "analysis.k-envelope";
    diag.message = "envelopes for '" + envelopes.algorithm +
                   "' checked against an engine for '" +
                   engine.algorithm().name() + "'";
    report.add(diag);
    return report;
  }

  // Closed-form quantities against the engine's certificate-total
  // accessors: the full prefix range plus a window around each
  // first-wrap boundary (pure arithmetic — any rank is cheap).
  struct Accessor {
    const char* name;
    std::uint64_t (routing::MemoRoutingEngine::*fn)(int) const;
    bool needs_decoder;
  };
  constexpr Accessor kAccessors[] = {
      {"chain.num_chains", &routing::MemoRoutingEngine::expected_num_chains,
       false},
      {"chain.total_hits",
       &routing::MemoRoutingEngine::expected_chain_total_hits, false},
      {"decode.num_paths",
       &routing::MemoRoutingEngine::expected_num_decode_paths, true},
      {"decode.total_hits",
       &routing::MemoRoutingEngine::expected_decode_total_hits, true},
  };
  for (const Accessor& acc : kAccessors) {
    if (acc.needs_decoder && !engine.has_decoder()) continue;
    const QuantityEnvelope* q = envelopes.find(acc.name);
    if (q == nullptr) {
      audit::Diagnostic diag;
      diag.rule = "analysis.k-envelope";
      diag.message = envelopes.algorithm + ": envelope missing quantity " +
                     std::string(acc.name);
      report.add(diag);
      continue;
    }
    for (int k = 1; k <= std::min(options.scalar_kmax, q->value_kmax); ++k) {
      mismatch(q->name, k, q->low_at(k), (engine.*acc.fn)(k));
    }
    if (q->first_wrap_k > 0) {
      const int lo = std::max(1, q->first_wrap_k - options.boundary_window);
      const int hi =
          std::min(q->value_kmax, q->first_wrap_k + options.boundary_window);
      for (int k = lo; k <= hi; ++k) {
        mismatch(q->name, k, q->low_at(k), (engine.*acc.fn)(k));
      }
    }
  }

  // Every quantity against the constant-memory implicit verifier.
  for (int k = 1; k <= options.stats_kmax; ++k) {
    const cdag::ImplicitCdag view(engine.algorithm(), k);
    const auto check = [&](const char* name, std::uint64_t actual) {
      const QuantityEnvelope* q = envelopes.find(name);
      if (q == nullptr || k > q->value_kmax) return;
      mismatch(q->name, k, q->low_at(k), actual);
    };
    const routing::HitStats l3 = engine.verify_chain_routing(view, k, 0);
    check("chain.num_chains", l3.num_paths);
    check("chain.l3_bound", l3.bound);
    check("chain.l3_max", l3.max_hits);
    const routing::FullRoutingStats t2 = engine.verify_full_routing(view, k, 0);
    check("full.t2_paths", t2.num_paths);
    check("full.t2_bound", t2.bound);
    check("full.t2_max", t2.max_vertex_hits);
    check("full.t2_meta", t2.max_meta_hits);
    if (envelopes.has_decode && engine.has_decoder()) {
      const routing::HitStats d = engine.verify_decode_routing(view, k, 0);
      check("decode.num_paths", d.num_paths);
      check("decode.bound", d.bound);
      check("decode.max", d.max_hits);
    }
  }
  return report;
}

}  // namespace pathrouting::analysis
