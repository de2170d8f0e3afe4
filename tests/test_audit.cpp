// The audit layer's positive contract: clean catalog CDAGs audit
// clean, reports are bit-identical across thread counts, the rule
// registry is coherent, the renderers are faithful, and the legacy
// schedule validator agrees with the diagnostic scan it shims.
// (tests/test_deathchecks.cpp holds the negative side: one mutated
// fixture per rule.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/disjoint_family.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/parallel/machine.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/hall.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/schedule/validate.hpp"
#include "pathrouting/support/debug_hooks.hpp"
#include "pathrouting/support/parallel.hpp"
#include "support/dense_machine.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using audit::AuditReport;
using audit::RuleSelection;
using cdag::VertexId;
using support::parallel::ThreadOverride;

TEST(Audit, CleanCatalogCdagsAuditClean) {
  for (const auto& name : bilinear::catalog_names()) {
    for (int r = 1; r <= 2; ++r) {
      for (const bool grouped : {false, true}) {
        const cdag::Cdag c(bilinear::by_name(name), r,
                           {.group_duplicate_rows = grouped});
        const AuditReport report = audit::audit_cdag(cdag::ExplicitView(c));
        EXPECT_TRUE(report.ok())
            << name << " r=" << r << " grouped=" << grouped << "\n"
            << report.to_text();
      }
    }
  }
}

TEST(Audit, ImplicitViewsAuditLikeTheirExplicitGraphs) {
  // Below the sample cap the scan is exhaustive on any view, meta-root
  // recount included, so an implicit report is the explicit one.
  const auto expect_same = [](const bilinear::BilinearAlgorithm& alg, int r) {
    const AuditReport implicit = audit::audit_cdag(cdag::ImplicitCdag(alg, r));
    const AuditReport explicit_report =
        audit::audit_cdag(cdag::ExplicitView(cdag::Cdag(alg, r)));
    EXPECT_TRUE(implicit == explicit_report)
        << alg.name() << " r=" << r << "\n"
        << implicit.to_text() << "\n"
        << explicit_report.to_text();
    EXPECT_TRUE(implicit.ok()) << alg.name() << " r=" << r;
    EXPECT_EQ(implicit.rules_run().size(), 7u) << alg.name() << " r=" << r;
  };
  for (const auto& name : bilinear::catalog_names()) {
    for (int r = 1; r <= 2; ++r) expect_same(bilinear::by_name(name), r);
  }
  expect_same(bilinear::strassen(), 3);
}

TEST(Audit, LargeImplicitViewAuditsOnASampleWithNotes) {
  // Strassen G_7 has ~5.7M virtual vertices, above the 2^20 sample cap.
  const cdag::ImplicitCdag implicit(bilinear::strassen(), 7);
  const std::uint64_t n = implicit.num_vertices();
  const std::uint64_t cap = std::uint64_t{1} << 20;
  ASSERT_GT(n, cap);
  const std::uint64_t stride = (n + cap - 1) / cap;
  const AuditReport report = audit::audit_cdag(implicit);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.rules_run().size(), 7u);
  std::vector<std::string> notes;
  for (const audit::Diagnostic& diag : report.diagnostics()) {
    if (diag.severity == audit::Severity::kNote) {
      notes.push_back(diag.rule + ": " + diag.message);
    }
  }
  ASSERT_EQ(notes.size(), 2u) << report.to_text();
  EXPECT_EQ(notes[0],
            "cdag.meta-root: membership recount skipped: the view lacks the "
            "explicit_edges capability (the recount needs O(n) meta arrays)");
  EXPECT_EQ(notes[1],
            "cdag.topological-ids: implicit view: per-vertex rules evaluated "
            "on a deterministic stride sample of " +
                std::to_string((n + stride - 1) / stride) + " of " +
                std::to_string(n) + " vertices");
}

TEST(Audit, RunAllCleanOnStrassenFamilies) {
  for (const auto* name : {"strassen", "winograd", "classical2"}) {
    const cdag::Cdag c(bilinear::by_name(name), 2);
    const AuditReport report = audit::run_all(c);
    EXPECT_TRUE(report.ok()) << name << "\n" << report.to_text();
    EXPECT_GE(report.rules_run().size(), 20u) << name;
  }
}

TEST(Audit, RoutingSuitesCleanOnStrassen) {
  const cdag::Cdag c(bilinear::strassen(), 2, {.with_coefficients = false});
  const routing::ChainRouter router(c.algorithm());
  const cdag::SubComputation sub(c, 1, 0);
  EXPECT_TRUE(audit::audit_chain_routing(router, sub).ok());
  EXPECT_TRUE(audit::audit_concat_routing(router, sub).ok());

  ASSERT_EQ(bilinear::decoding_components(c.algorithm()), 1);
  const routing::DecodeRouter decode(c.algorithm());
  EXPECT_TRUE(audit::audit_decode_routing(decode, sub).ok());

  for (const auto side : {bilinear::Side::A, bilinear::Side::B}) {
    const auto matching = routing::compute_base_matching(c.algorithm(), side);
    ASSERT_TRUE(matching.has_value());
    EXPECT_TRUE(audit::audit_hall_matching(c.algorithm(), side, *matching).ok());
  }

  const auto family = bounds::build_disjoint_family(c, 0);
  EXPECT_TRUE(audit::audit_disjoint_family(c, family).ok());
}

TEST(Audit, ReportsAreThreadCountInvariant) {
  const cdag::Cdag c(bilinear::strassen(), 2);
  AuditReport serial, parallel4;
  {
    const ThreadOverride threads(1);
    serial = audit::run_all(c);
  }
  {
    const ThreadOverride threads(4);
    parallel4 = audit::run_all(c);
  }
  EXPECT_TRUE(serial == parallel4);
  EXPECT_TRUE(serial.ok());
}

TEST(Audit, FindingsAreThreadCountInvariant) {
  // A corrupted family produces many findings across chunks; the folded
  // report must not depend on the thread count.
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  const VertexId input = c.layout().input(bilinear::Side::A, 0);
  const VertexId enc = c.layout().enc(bilinear::Side::A, 1, 0, 0);
  std::vector<std::uint64_t> offsets{0};
  std::vector<VertexId> vertices;
  for (int i = 0; i < 200; ++i) {
    vertices.push_back(input);
    vertices.push_back(enc);
    offsets.push_back(vertices.size());
  }
  audit::PathFamily family;
  family.offsets = offsets;
  family.vertices = vertices;
  family.congestion_bound = 1;
  family.expected_length = 3;  // every path is short: findings per chunk
  family.vertex_disjoint = true;

  AuditReport serial, parallel4;
  {
    const ThreadOverride threads(1);
    serial = audit::audit_path_family(c.graph(), family);
  }
  {
    const ThreadOverride threads(4);
    parallel4 = audit::audit_path_family(c.graph(), family);
  }
  EXPECT_TRUE(serial == parallel4);
  EXPECT_FALSE(serial.ok());
  EXPECT_TRUE(serial.has_finding("routing.path-length"));
  EXPECT_TRUE(serial.has_finding("routing.congestion"));
  EXPECT_TRUE(serial.has_finding("routing.path-disjoint"));
}

TEST(Audit, RegistryIsCoherent) {
  const auto rules = audit::all_rules();
  EXPECT_GE(rules.size(), 28u);
  std::vector<std::string> ids;
  for (const auto& rule : rules) {
    ids.emplace_back(rule.id);
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    EXPECT_FALSE(rule.paper_ref.empty()) << rule.id;
    const auto* found = audit::find_rule(rule.id);
    ASSERT_NE(found, nullptr) << rule.id;
    EXPECT_EQ(found->id, rule.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate rule id";
  EXPECT_EQ(audit::find_rule("no.such-rule"), nullptr);
}

TEST(Audit, RuleSelectionFiltersByIdAndPrefix) {
  const auto all = RuleSelection::all();
  EXPECT_TRUE(all.enabled("cdag.rank-structure"));

  const auto only_cdag = RuleSelection::only({"cdag."});
  EXPECT_TRUE(only_cdag.enabled("cdag.rank-structure"));
  EXPECT_FALSE(only_cdag.enabled("routing.congestion"));

  auto without = RuleSelection::all();
  without.disable("cdag.rank-structure");
  EXPECT_FALSE(without.enabled("cdag.rank-structure"));
  EXPECT_TRUE(without.enabled("cdag.degree-bounds"));

  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  const AuditReport report =
      audit::audit_cdag(cdag::ExplicitView(c), only_cdag);
  for (const auto& rule : report.rules_run()) {
    EXPECT_EQ(rule.rfind("cdag.", 0), 0u) << rule;
  }
  EXPECT_GE(report.rules_run().size(), 7u);
}

TEST(Audit, TextAndJsonRenderersAreFaithful) {
  AuditReport report;
  report.mark_rule_run("cdag.rank-structure");
  audit::Diagnostic diag;
  diag.rule = "cdag.rank-structure";
  diag.message = "bad \"rank\"\nsecond line";
  diag.vertex = 7;
  diag.expected = 2;
  diag.actual = 5;
  diag.has_counts = true;
  report.add(diag);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("[cdag.rank-structure]"), std::string::npos);
  EXPECT_NE(text.find("vertex 7"), std::string::npos);
  EXPECT_NE(text.find("expected 2"), std::string::npos);
  EXPECT_NE(text.find("1 errors"), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"rule\":\"cdag.rank-structure\""), std::string::npos);
  EXPECT_NE(json.find("\\\"rank\\\""), std::string::npos);  // escaped quotes
  EXPECT_NE(json.find("\\n"), std::string::npos);           // escaped newline
  EXPECT_NE(json.find("\"vertex\":7"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

TEST(Audit, LegacyValidatorAgreesWithDiagnostics) {
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  auto order = schedule::dfs_schedule(c);

  EXPECT_TRUE(schedule::schedule_diagnostics(c.graph(), order).empty());
  EXPECT_TRUE(audit::audit_schedule(c.graph(), order).ok());

  std::swap(order.front(), order.back());
  const auto diags = schedule::schedule_diagnostics(c.graph(), order);
  ASSERT_FALSE(diags.empty());
  EXPECT_FALSE(diags.front().message.empty());

  const AuditReport report = audit::audit_schedule(c.graph(), order);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_finding(diags.front().rule));
}

// --- machine.superstep-conservation ------------------------------------

// A corruptible copy of a machine's conservation log: spans in the
// view alias the vectors here, so mutating a vector (or a counter)
// mutates exactly one invariant.
struct MachineLogCopy {
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  std::vector<std::uint64_t> max_traffic;
  std::uint64_t bandwidth_cost = 0;
  std::uint64_t total_words = 0;
  std::uint64_t supersteps = 0;

  template <typename M>
  explicit MachineLogCopy(const M& machine)
      : sent(machine.step_sent().begin(), machine.step_sent().end()),
        received(machine.step_received().begin(),
                 machine.step_received().end()),
        max_traffic(machine.step_max_traffic().begin(),
                    machine.step_max_traffic().end()),
        bandwidth_cost(machine.bandwidth_cost()),
        total_words(machine.total_words()),
        supersteps(machine.supersteps()) {}

  [[nodiscard]] audit::MachineSuperstepView view() const {
    return {sent, received, max_traffic, bandwidth_cost, total_words,
            supersteps};
  }
};

// A small three-superstep ring exchange on four processors.
parallel::Machine ring_machine() {
  parallel::Machine machine(4, 1u << 20);
  for (int step = 0; step < 3; ++step) {
    for (std::uint64_t p = 0; p < 4; ++p) {
      machine.send(p, (p + 1) % 4, 5 + static_cast<std::uint64_t>(step));
    }
    machine.end_superstep();
  }
  return machine;
}

TEST(Audit, MachineConservationCleanLogPasses) {
  const parallel::Machine machine = ring_machine();
  const MachineLogCopy log(machine);
  ASSERT_EQ(log.supersteps, 3u);
  const AuditReport report = audit::audit_machine_supersteps(log.view());
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_FALSE(report.rules_run().empty());
}

TEST(Audit, MachineConservationMutationsAreCaught) {
  const parallel::Machine machine = ring_machine();
  const MachineLogCopy clean(machine);
  const auto expect_caught = [](const MachineLogCopy& log, const char* what) {
    const AuditReport report = audit::audit_machine_supersteps(log.view());
    EXPECT_FALSE(report.ok()) << what;
    EXPECT_TRUE(report.has_finding("machine.superstep-conservation")) << what;
  };

  {
    MachineLogCopy log = clean;
    log.sent[1] += 1;  // also breaks the total-words sum: two findings
    expect_caught(log, "sent != received");
  }
  {
    MachineLogCopy log = clean;
    log.max_traffic[0] = 0;
    expect_caught(log, "charged max of zero on a counted superstep");
  }
  {
    MachineLogCopy log = clean;
    log.max_traffic[2] = log.sent[2] + log.received[2] + 1;
    expect_caught(log, "charged max above the words in flight");
  }
  {
    MachineLogCopy log = clean;
    log.bandwidth_cost += 1;
    expect_caught(log, "bandwidth counter drifts from the log sum");
  }
  {
    MachineLogCopy log = clean;
    log.total_words -= 1;
    expect_caught(log, "total-words counter drifts from the log sum");
  }
  {
    MachineLogCopy log = clean;
    log.supersteps = 7;
    expect_caught(log, "superstep counter disagrees with the log length");
  }
  {
    MachineLogCopy log = clean;
    log.received.pop_back();
    expect_caught(log, "mismatched log array lengths");
  }
}

TEST(Audit, MachinePairCleanAndMutatedOracle) {
  // The sparse machine replays the ring via one symmetric class; the
  // dense oracle replays it scalar send by scalar send.
  parallel::Machine aggregate(4, 1u << 20);
  parallel::DenseMachine scalar(4, 1u << 20);
  for (int step = 0; step < 3; ++step) {
    const std::uint64_t words = 5 + static_cast<std::uint64_t>(step);
    aggregate.send_class(4, words);
    for (std::uint64_t p = 0; p < 4; ++p) {
      scalar.send(p, (p + 1) % 4, words);
    }
    aggregate.end_superstep();
    scalar.end_superstep();
  }
  const MachineLogCopy agg(aggregate);
  const MachineLogCopy sca(scalar);
  EXPECT_TRUE(audit::audit_machine_pair(agg.view(), sca.view()).ok());

  MachineLogCopy drifted = agg;
  drifted.max_traffic[1] -= 1;
  drifted.bandwidth_cost -= 1;  // keep the single-log invariants intact
  const AuditReport report =
      audit::audit_machine_pair(drifted.view(), sca.view());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_finding("machine.superstep-conservation"));
}

TEST(Audit, MachineRuleIsRegistered) {
  const auto* rule = audit::find_rule("machine.superstep-conservation");
  ASSERT_NE(rule, nullptr);
  EXPECT_GE(audit::all_rules().size(), 41u);
}

// Last on purpose: installing the hook makes every later Cdag
// construction in this process run the structural suite.
TEST(Audit, DebugHookAuditsFreshCdags) {
  audit::install_debug_hooks();
  // A clean construction passes through the hook without incident.
  const cdag::Cdag c(bilinear::strassen(), 1, {.with_coefficients = false});
  EXPECT_EQ(c.r(), 1);
  support::set_debug_hook(support::DebugHookPoint::kCdagBuilt, nullptr);
}

}  // namespace
