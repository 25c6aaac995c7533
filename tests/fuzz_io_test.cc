// Robustness fuzzing of the text parsers: random byte-level mutations of
// valid inputs must either parse to a valid object or throw a typed
// exception — never crash, hang, or produce an object that fails
// validate().
#include <gtest/gtest.h>

#include <sstream>

#include "core/checkpoint.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "sim/problem.h"
#include "sim/problem_io.h"
#include "sim/trace_io.h"
#include "util/rng.h"

namespace recon {
namespace {

std::string mutate(const std::string& input, util::Rng& rng, int edits) {
  std::string s = input;
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(s.size()));
    switch (rng.below(4)) {
      case 0:  // flip to random printable
        s[pos] = static_cast<char>(' ' + rng.below(95));
        break;
      case 1:  // delete
        s.erase(pos, 1);
        break;
      case 2:  // duplicate
        s.insert(pos, 1, s[pos]);
        break;
      case 3:  // truncate
        s.resize(pos);
        break;
    }
  }
  return s;
}

TEST(FuzzIo, EdgeListParserNeverCrashes) {
  std::stringstream base;
  graph::write_edge_list(base, graph::erdos_renyi_gnm(30, 60, 3));
  const std::string valid = base.str();
  util::Rng rng(17);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::stringstream in(mutate(valid, rng, 1 + static_cast<int>(rng.below(8))));
    try {
      const auto g = graph::read_edge_list(in);
      // Whatever parsed must be internally consistent.
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_LT(g.edge_u(e), g.num_nodes());
        ASSERT_LT(g.edge_v(e), g.num_nodes());
      }
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Both outcomes should occur across 400 mutations.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzIo, TraceParserNeverCrashes) {
  const std::string valid =
      "#recon-trace v1\n"
      "trace 0\n"
      "batch sel=0.01 cost=3 reqs=1:1,2:0,3:1 df=1.5 dx=0.5 de=0.25\n"
      "batch sel=0.02 cost=2 reqs=4:1,5:0:2 df=1 dx=0 de=0\n"
      "trace 1\n"
      "batch sel=0.01 cost=1 reqs=7:1 df=1 dx=0 de=0\n"
      "end 2\n";
  util::Rng rng(23);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::stringstream in(mutate(valid, rng, 1 + static_cast<int>(rng.below(6))));
    try {
      const auto traces = sim::read_traces(in);
      for (const auto& t : traces) {
        for (const auto& b : t.batches) {
          ASSERT_EQ(b.requests.size(), b.accepted.size());
        }
      }
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzIo, CheckpointParserNeverCrashes) {
  // Mutations that shorten, lengthen or split a section must be rejected
  // with std::runtime_error, and whatever parses must re-encode to bytes
  // that parse back to the same document.
  const std::string valid =
      "#recon-checkpoint v2\n"
      "meta world-seed=42 budget=10 spent=2 round=3 clock=0.5\n"
      "nodes 6 012210\n"
      "edges 3 102\n"
      "attempts 2 1:2 3:1\n"
      "friends 2 3 1\n"
      "cooldowns 1 1:12.5\n"
      "benefit friends=2 fofs=0.30000000000000004 edges=1.5\n"
      "fault sends=9 tick=4 until=6 window=3:2,4:1 counters=5,1,1,1,0,1\n"
      "async window=4 now=2.75 sent=3 accepts=1\n"
      "rng 1 2 3 4\n"
      "inflight 1 0:1:0:0.5:3\n"
      "strategy rolling-window\n"
      "strategy-state \n"
      "end\n"
      "#recon-trace v1\n"
      "trace 0\n"
      "batch sel=0 cost=1 reqs=0:1 df=1 dx=0 de=0 ccost=2\n"
      "end 1\n";
  util::Rng rng(29);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::istringstream in(mutate(valid, rng, 1 + static_cast<int>(rng.below(4))));
    try {
      const core::AttackCheckpoint cp = core::read_checkpoint(in);
      for (const auto s : cp.node_states) ASSERT_LE(static_cast<int>(s), 2);
      for (const auto s : cp.edge_states) ASSERT_LE(static_cast<int>(s), 2);
      // Whatever parsed must survive its own round trip unchanged.
      std::ostringstream once;
      core::write_checkpoint(once, cp);
      std::istringstream again(once.str());
      std::ostringstream twice;
      core::write_checkpoint(twice, core::read_checkpoint(again));
      ASSERT_EQ(twice.str(), once.str());
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzIo, ProblemParserNeverCrashes) {
  sim::ProblemOptions opts;
  opts.num_targets = 8;
  opts.seed = 3;
  const sim::Problem p = sim::make_problem(graph::erdos_renyi_gnm(25, 50, 1), opts);
  std::stringstream base;
  sim::write_problem(base, p);
  const std::string valid = base.str();
  util::Rng rng(31);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::stringstream in(mutate(valid, rng, 1 + static_cast<int>(rng.below(6))));
    try {
      const sim::Problem loaded = sim::read_problem(in);
      loaded.validate();  // read_problem validates, but double-check
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);  // most mutations must be caught
}

// Truncation at any line boundary must be rejected, not silently parsed as
// a shorter-but-valid object. The `end` footer makes this detectable.
TEST(FuzzIo, TruncatedProblemRejected) {
  sim::ProblemOptions opts;
  opts.num_targets = 6;
  opts.seed = 5;
  const sim::Problem p = sim::make_problem(graph::erdos_renyi_gnm(20, 40, 2), opts);
  std::stringstream base;
  sim::write_problem(base, p);
  const std::string valid = base.str();

  // Sanity: the complete file parses.
  {
    std::stringstream in(valid);
    EXPECT_NO_THROW(sim::read_problem(in));
  }
  // Drop trailing lines one at a time; every prefix must throw.
  std::string s = valid;
  for (int cut = 0; cut < 5; ++cut) {
    const std::size_t last_nl = s.find_last_of('\n', s.size() - 2);
    if (last_nl == std::string::npos) break;
    s.resize(last_nl + 1);
    std::stringstream in(s);
    EXPECT_THROW(sim::read_problem(in), std::runtime_error)
        << "accepted a file truncated to " << s.size() << " bytes";
  }
  // Mid-line truncation of the targets section must also throw.
  const std::size_t tpos = valid.find("targets");
  ASSERT_NE(tpos, std::string::npos);
  const std::size_t tend = valid.find('\n', tpos);
  std::string midline = valid.substr(0, tend - 2);
  std::stringstream in(midline);
  EXPECT_THROW(sim::read_problem(in), std::runtime_error);
}

TEST(FuzzIo, TruncatedTraceRejected) {
  const std::string valid =
      "#recon-trace v1\n"
      "trace 0\n"
      "batch sel=0.01 cost=3 reqs=1:1,2:0 df=1.5 dx=0.5 de=0.25\n"
      "batch sel=0.02 cost=2 reqs=4:1 df=1 dx=0 de=0\n"
      "end 1\n";
  {
    std::stringstream in(valid);
    EXPECT_NO_THROW(sim::read_traces(in));
  }
  // Missing footer (cut at a line boundary).
  {
    std::stringstream in(valid.substr(0, valid.find("end 1")));
    EXPECT_THROW(sim::read_traces(in), std::runtime_error);
  }
  // Footer trace count disagrees with body.
  {
    std::stringstream in(
        "#recon-trace v1\ntrace 0\n"
        "batch sel=0 cost=1 reqs=1:1 df=1 dx=0 de=0\nend 2\n");
    EXPECT_THROW(sim::read_traces(in), std::runtime_error);
  }
  // Content after the footer.
  {
    std::stringstream in(valid + "trace 1\n");
    EXPECT_THROW(sim::read_traces(in), std::runtime_error);
  }
}

TEST(FuzzIo, BadHeadersRejected) {
  for (const char* header :
       {"", "#recon-trace v0\n", "#recon-trace v2\n", "recon-trace v1\n",
        "#recon-problem v1\n"}) {
    std::stringstream in(std::string(header) + "trace 0\nend 1\n");
    EXPECT_THROW(sim::read_traces(in), std::runtime_error) << header;
  }
  for (const char* header :
       {"", "#recon-problem v0\n", "#recon-problem v2\n", "#recon-trace v1\n"}) {
    std::stringstream in(std::string(header) + "graph 1 0\nend\n");
    EXPECT_THROW(sim::read_problem(in), std::runtime_error) << header;
  }
}

TEST(FuzzIo, TraceRejectsMalformedFields) {
  const char* cases[] = {
      // accept flag not 0/1
      "#recon-trace v1\ntrace 0\nbatch sel=0 cost=1 reqs=1:2 df=1 dx=0 de=0\nend 1\n",
      // outcome out of range
      "#recon-trace v1\ntrace 0\nbatch sel=0 cost=1 reqs=1:1:9 df=1 dx=0 de=0\nend 1\n",
      // negative node id
      "#recon-trace v1\ntrace 0\nbatch sel=0 cost=1 reqs=-1:1 df=1 dx=0 de=0\nend 1\n",
      // junk in a numeric field
      "#recon-trace v1\ntrace 0\nbatch sel=0x cost=1 reqs=1:1 df=1 dx=0 de=0\nend 1\n",
      // batch before any trace
      "#recon-trace v1\nbatch sel=0 cost=1 reqs=1:1 df=1 dx=0 de=0\nend 0\n",
      // unknown record kind
      "#recon-trace v1\ntrace 0\nbogus\nend 1\n",
  };
  for (const char* text : cases) {
    std::stringstream in(text);
    EXPECT_THROW(sim::read_traces(in), std::runtime_error) << text;
  }
}

TEST(FuzzIo, ProblemRejectsOversizedCounts) {
  // Targets count larger than n must fail before allocating.
  std::stringstream in(
      "#recon-problem v1\ngraph 3 1\ne 0 1 0.5\n"
      "targets 99 0 1 2\nacceptance uniform 0.5\nbenefit paper\nend\n");
  EXPECT_THROW(sim::read_problem(in), std::runtime_error);
  // attrs with the wrong number of values must fail.
  std::stringstream in2(
      "#recon-problem v1\ngraph 3 1\ne 0 1 0.5\n"
      "targets 1 0\nacceptance uniform 0.5\nbenefit paper\n"
      "attrs 2 7 7 7\nend\n");
  EXPECT_THROW(sim::read_problem(in2), std::runtime_error);
}

// Fault-outcome round trip: the optional third field survives write→read and
// fault-free batches keep the compact two-field form.
TEST(FuzzIo, TraceOutcomeRoundTrip) {
  sim::AttackTrace t;
  sim::BatchRecord b1;
  b1.requests = {3, 5};
  b1.accepted = {1, 0};
  b1.delta.friends = 1.0;
  b1.cost = 2.0;
  sim::BatchRecord b2;
  b2.requests = {7, 9, 11};
  b2.accepted = {0, 0, 1};
  b2.outcome = {0, 1, 0};  // node 9 timed out
  b2.delta.friends = 1.0;
  b2.cost = 3.0;
  t.batches = {b1, b2};
  // Fix cumulative fields the way run_attack would.
  t.batches[0].cumulative = t.batches[0].delta;
  t.batches[0].cumulative_cost = t.batches[0].cost;
  t.batches[1].cumulative = t.batches[0].cumulative;
  t.batches[1].cumulative += t.batches[1].delta;
  t.batches[1].cumulative_cost = t.batches[0].cost + t.batches[1].cost;

  std::stringstream ss;
  sim::write_traces(ss, {t});
  const std::string text = ss.str();
  EXPECT_NE(text.find("9:0:1"), std::string::npos);
  EXPECT_NE(text.find("3:1,5:0 "), std::string::npos);  // two-field fast path
  const auto loaded = sim::read_traces(ss);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].batches.size(), 2u);
  EXPECT_TRUE(loaded[0].batches[0].outcome.empty());
  EXPECT_EQ(loaded[0].batches[1].outcome, b2.outcome);
  EXPECT_EQ(loaded[0].batches[1].requests, b2.requests);
}

}  // namespace
}  // namespace recon
