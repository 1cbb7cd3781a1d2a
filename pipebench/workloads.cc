#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "eval/evaluator.h"
#include "hw/device.h"
#include "hw/opcount.h"
#include "hw/roofline.h"
#include "linalg/linalg.h"
#include "model/decomp_config.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "robust/checkpoint.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "spans.h"
#include "stats.h"
#include "tensor/ops.h"
#include "train/model_zoo.h"
#include "train/world.h"
#include "util/cache.h"
#include "util/logging.h"
#include "util/memprobe.h"

namespace pipebench {

namespace {

using Clock = std::chrono::steady_clock;
using lrd::strCat;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Cache entry that `pipebench prepare` exports and timed runs load. */
constexpr const char *kCheckpointEntry = "pipebench-tiny-llama.bin";
/**
 * Set-ups per run: at least kMinSetUps, then more until kSetUpSeconds
 * have gone into set-up (at most kMaxSetUps); setup_s is their median.
 */
constexpr int kMinSetUps = 5;
constexpr int kMaxSetUps = 25;
constexpr double kSetUpSeconds = 1.0;
/** Items per benchmark in each DSE evaluation, as `lrdtool dse`. */
constexpr int kDseEvalTasks = 24;
/** Items per benchmark in the eval workloads, as `lrdtool eval`. */
constexpr int kEvalTasks = 120;
/** The low-rank eval model's target parameter reduction. */
constexpr double kLowRankReduction = 0.5;
/** Server::run segments per serve pass, and requests per segment. */
constexpr int kServeSegments = 8;
constexpr int kServeSegmentRequests = 500;
/** Prompt length of the model probes; also the block-probe rows. */
constexpr int kProbeTokens = 64;

/** The exported checkpoint; a timed run never trains a missing one. */
std::vector<uint8_t>
readCheckpoint()
{
    if (!lrd::cacheHas(kCheckpointEntry))
        throw std::runtime_error(
            strCat("no checkpoint at ", lrd::cachePath(kCheckpointEntry),
                   "; run `pipebench prepare` first (run.py does)"));
    lrd::Result<std::vector<uint8_t>> bytes =
        lrd::cacheRead(kCheckpointEntry);
    if (!bytes.ok())
        throw std::runtime_error(bytes.status().toString());
    return std::move(bytes).value();
}

std::unique_ptr<lrd::TransformerModel>
loadCheckpoint(SpanRecorder *spans)
{
    ScopedSpan span(spans, "model.load");
    return std::make_unique<lrd::TransformerModel>(
        lrd::TransformerModel::deserialize(readCheckpoint()));
}

/** CRC-32 over the bytes of a pass's outputs. */
class Digest
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        uint8_t b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        bytes_.insert(bytes_.end(), b, b + sizeof(T));
    }
    void
    add(const std::string &s)
    {
        bytes_.insert(bytes_.end(), s.begin(), s.end());
        bytes_.push_back(0);
    }
    std::string
    hex() const
    {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%08x", lrd::crc32(bytes_));
        return buf;
    }

  private:
    std::vector<uint8_t> bytes_;
};

/** What one timed pass produced and whether it was right. */
struct PassResult
{
    int64_t items = 0;     ///< Work units attempted.
    int64_t completed = 0; ///< Units that produced their result.
    int64_t failed = 0;    ///< Units that went wrong (faulted, unscored).
    std::string digest; ///< Identical for every pass of one seed.
    std::vector<std::string> problems; ///< Failed correctness checks.
};

// ---------------------------------------------------------------------
// Per-layer metrics: the full list every traced run prints, the
// end-to-end metric each should move, and on which workload.
// ---------------------------------------------------------------------

struct LayerMetricSpec
{
    std::string name;
    std::string unit;
    std::string moves;
};

const char *const kMovesDse = "items_per_s on dse_sweep";
const char *const kMovesLinalg =
    "items_per_s on dse_sweep; 0 SVD calls on eval_suite.* and "
    "serve_openloop";
const char *const kMovesTensor = "items_per_s on every workload";
const char *const kMovesParallel =
    "items_per_s on dse_sweep and serve_openloop";
const char *const kMovesModel =
    "items_per_s on eval_suite.* and serve_openloop";
const char *const kMovesHw =
    "none: the roofline reference printed beside model.block_us";
const char *const kMovesEval = "items_per_s on eval_suite.*";
const char *const kMovesServe = "items_per_s on serve_openloop";
const char *const kMovesObs = "none: a guard that tracing stays cheap";

const std::vector<LayerMetricSpec> &
layerMetricSpecs()
{
    static const std::vector<LayerMetricSpec> specs = [] {
        std::vector<LayerMetricSpec> v;
        auto one = [&](const std::string &name, const char *unit,
                       const char *moves) {
            v.push_back({name, unit, moves});
        };
        // A per-call timing: median, tail percentile, sample count.
        auto timing = [&](const std::string &base, const char *unit,
                          const char *moves) {
            one(base + ".p50", unit, moves);
            one(base + ".ptail", unit, moves);
            one(base + ".n", "count", moves);
        };
        for (const char *phase : {"deserialize", "decompose", "evaluate",
                                  "estimate"})
            timing(strCat("dse.", phase, "_ms"), "ms", kMovesDse);
        one("linalg.svd_calls", "count", kMovesLinalg);
        one("linalg.jacobi_sweeps", "count", kMovesLinalg);
        one("linalg.svd_useful_ratio", "ratio", kMovesLinalg);
        timing("linalg.svd_ms", "ms", kMovesLinalg);
        one("tensor.gemm_calls", "count", kMovesTensor);
        one("tensor.gemm_macs", "count", kMovesTensor);
        one("tensor.macs_per_call", "count", kMovesTensor);
        one("tensor.packed_mb", "MB", kMovesTensor);
        one("tensor.arena_allocs", "count", kMovesTensor);
        one("tensor.effective_gmacs", "GMAC/s", kMovesTensor);
        one("tensor.peak_gmacs", "GMAC/s", kMovesTensor);
        one("parallel.pool_chunks", "count", kMovesParallel);
        one("parallel.idle_waits", "count", kMovesParallel);
        one("parallel.sweep_speedup", "ratio", kMovesParallel);
        for (const char *variant : {"dense", "lowrank"}) {
            timing(strCat("model.prefill_ms.", variant), "ms", kMovesModel);
            timing(strCat("model.decode_step_us.", variant), "us",
                   kMovesModel);
            timing(strCat("model.block_us.", variant), "us", kMovesModel);
        }
        one("model.fused_forwards", "count", kMovesModel);
        one("model.weight_packs", "count", kMovesModel);
        one("hw.block_roofline_us.dense", "us", kMovesHw);
        one("hw.block_roofline_us.lowrank", "us", kMovesHw);
        one("hw.cpu_peak_gmacs", "GMAC/s", kMovesHw);
        timing("eval.mc_item_ms", "ms", kMovesEval);
        timing("eval.gen_item_ms", "ms", kMovesEval);
        one("eval.items", "count", kMovesEval);
        timing("serve.ctor_ms", "ms", "setup_s on serve_openloop");
        one("serve.batch_ms", "ms", kMovesServe);
        one("serve.batch_size_mean", "count", kMovesServe);
        one("serve.batches", "count", kMovesServe);
        one("serve.client_retries", "count", kMovesServe);
        one("serve.shed", "count", kMovesServe);
        one("serve.admit_ratio", "ratio", kMovesServe);
        one("serve.max_ladder_level", "count", kMovesServe);
        one("serve.p50_latency_ticks", "ticks", kMovesServe);
        one("serve.p99_latency_ticks", "ticks", kMovesServe);
        one("serve.degraded_share", "ratio", kMovesServe);
        one("obs.trace_overhead", "ratio", kMovesObs);
        return v;
    }();
    return specs;
}

/**
 * The per-layer values of one traced run. Metrics a workload does not
 * exercise keep the value 0 and are marked "n/a" in the printed table.
 */
class LayerMetrics
{
  public:
    void
    set(const std::string &name, double value)
    {
        bool known = false;
        for (const LayerMetricSpec &s : layerMetricSpecs())
            known = known || s.name == name;
        if (!known)
            throw std::logic_error("undeclared per-layer metric " + name);
        values_[name] = std::isfinite(value) ? value : 0.0;
    }

    void
    setTiming(const std::string &base, const TimingSummary &t)
    {
        set(base + ".p50", t.p50);
        set(base + ".ptail", t.tail);
        set(base + ".n", static_cast<double>(t.n));
        tailPercentile_[base + ".ptail"] = t.tailPercentile;
    }

    /** Print the table and return the metrics in declaration order. */
    std::vector<Metric>
    finish() const
    {
        std::printf("\n%-34s %14s %-7s %s\n", "per-layer metric", "value",
                    "unit", "should move");
        std::vector<Metric> out;
        for (const LayerMetricSpec &s : layerMetricSpecs()) {
            const auto it = values_.find(s.name);
            const double v = it == values_.end() ? 0.0 : it->second;
            std::string note;
            if (it == values_.end())
                note = "n/a (not exercised by this workload); ";
            const auto tp = tailPercentile_.find(s.name);
            if (tp != tailPercentile_.end())
                note += tp->second > 0
                            ? strCat("p", tp->second, "; ")
                            : std::string("p50: too few samples for a "
                                          "tail; ");
            std::printf("%-34s %14.6g %-7s %s%s\n", s.name.c_str(), v,
                        s.unit.c_str(), note.c_str(), s.moves.c_str());
            out.push_back({s.name, v, s.unit});
        }
        return out;
    }

  private:
    std::map<std::string, double> values_;
    std::map<std::string, int> tailPercentile_;
};

std::map<std::string, int64_t>
counterTotals()
{
    std::map<std::string, int64_t> out;
    for (const auto &[name, value] :
         lrd::MetricsRegistry::instance().snapshot().counters)
        out[name] = value;
    return out;
}

/** Counter deltas between two counterTotals() snapshots. */
struct CounterDelta
{
    std::map<std::string, int64_t> before, after;
    int64_t
    operator[](const std::string &name) const
    {
        const auto a = after.find(name);
        const auto b = before.find(name);
        return (a == after.end() ? 0 : a->second)
               - (b == before.end() ? 0 : b->second);
    }
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** What one work unit is ("candidates", "items", "requests"). */
    virtual const char *unitName() const = 0;
    /** One-line description and why the workload was chosen. */
    virtual const char *what() const = 0;
    virtual const char *why() const = 0;
    /** Build fresh state (load, world, decompose, server). */
    virtual void setUp(SpanRecorder *spans) = 0;
    /** The untimed warm-up before any timed pass. */
    virtual const char *warmUpName() const = 0;
    virtual void warmUp() = 0;
    /**
     * Distinct inputs a cycle of passes covers; pass i runs segment
     * i mod segments(). Each segment is timed on its own, so a slow
     * moment of the host inflates one segment's sample, not a cycle.
     */
    virtual int segments() const { return 1; }
    virtual PassResult pass(int segment, SpanRecorder *spans) = 0;
    /**
     * Workload-named end-to-end lines. segmentSeconds holds each
     * segment's median over `passes` timed passes.
     */
    virtual void report(const std::vector<double> &segmentSeconds,
                        size_t passes) const = 0;
    /** Per-layer metrics derived from one traced cycle's counters. */
    virtual void
    traceCounters(const CounterDelta &c, LayerMetrics &layers) const
    {
        (void)c;
        (void)layers;
    }
    /**
     * Per-layer metrics only this workload's calls give. May add
     * correctness problems (a replay that disagrees with the pass).
     */
    virtual void
    traceLayers(SpanRecorder &spans, LayerMetrics &layers,
                double cycleSeconds, std::vector<std::string> &problems)
    {
        (void)spans;
        (void)layers;
        (void)cycleSeconds;
        (void)problems;
    }
};

/**
 * dse_sweep: optimizeDecomposition over ranks {1,2,4,8} x layer counts
 * 1..8 (32 candidates), evalTasks 24, as `lrdtool dse`.
 */
class DseSweep final : public Workload
{
  public:
    explicit DseSweep(uint64_t seed)
    {
        opts_.evalTasks = kDseEvalTasks;
        opts_.evalSeed = seed;
        // Set outright: `lrdtool dse --ranks` appends to the default
        // {1}, so a CLI-driven grid would change when that is fixed.
        opts_.candidateRanks = {1, 2, 4, 8};
    }

    const char *unitName() const override { return "candidates"; }
    const char *
    what() const override
    {
        return "optimizeDecomposition over ranks {1,2,4,8} x layer "
               "counts 1..8 (32 candidates), evalTasks 24";
    }
    const char *
    why() const override
    {
        return "the paper's headline Definition-1 pipeline; linalg and "
               "decomp do about half its work (1008 SVDs of 56 distinct "
               "weights), so decompose-once must show its gain here";
    }

    void
    setUp(SpanRecorder *spans) override
    {
        world_.reset();
        const std::unique_ptr<lrd::TransformerModel> model =
            loadCheckpoint(spans);
        cfg_ = model->config();
        bytes_ = model->serialize(); // As `lrdtool dse` hands it over.
        ScopedSpan span(spans, "train.world");
        world_ = std::make_unique<lrd::World>();
    }

    const char *
    warmUpName() const override
    {
        return "one candidate (rank 1, one layer) through deserialize, "
               "decompose, evaluate and estimate";
    }
    void
    warmUp() override
    {
        (void)evaluateCandidate(1, 1, nullptr, -1);
    }

    PassResult
    pass(int, SpanRecorder *spans) override
    {
        ScopedSpan span(spans, "dse.sweep");
        last_ = lrd::optimizeDecomposition(bytes_, *world_, opts_);
        return check(last_);
    }

    void
    report(const std::vector<double> &segmentSeconds,
           size_t passes) const override
    {
        std::printf("dse.sweep_s              %.6g s  (median of %zu "
                    "sweeps)\n",
                    segmentSeconds.front(), passes);
        std::printf("dse.best                 %s (accuracy %.4f, "
                    "baseline %.4f)\n",
                    last_.best.config.describe().c_str(),
                    last_.best.accuracy, last_.baselineAccuracy);
    }

    /** Distinct weights the sweep decomposes over SVD calls made. */
    void
    traceCounters(const CounterDelta &c, LayerMetrics &layers) const override
    {
        std::set<int> decomposed;
        for (int count = 1; count <= cfg_.nLayers; ++count)
            for (int l : lrd::spreadSchedule(static_cast<int>(cfg_.nLayers),
                                             count))
                decomposed.insert(l);
        const auto distinct =
            static_cast<double>(decomposed.size()
                                * lrd::decomposableKinds(cfg_.arch).size());
        if (c["svd.calls"] > 0)
            layers.set("linalg.svd_useful_ratio",
                       distinct / static_cast<double>(c["svd.calls"]));
    }

    void
    traceLayers(SpanRecorder &spans, LayerMetrics &layers,
                double cycleSeconds,
                std::vector<std::string> &problems) override
    {
        // Replay the sweep's candidates through the same public calls
        // with the same candidate-level parallelFor, one span per
        // phase, and require bitwise the sweep's records.
        spans.beginRun("dse candidate replay");
        std::vector<std::pair<int64_t, int>> grid;
        for (int64_t rank : opts_.candidateRanks)
            for (int count = 1; count <= cfg_.nLayers; ++count)
                grid.emplace_back(rank, count);
        std::vector<lrd::CandidateRecord> replay(grid.size());
        {
            ScopedSpan root(&spans, "dse.replay");
            const int64_t rootId = root.id();
            lrd::parallelFor(
                0, static_cast<int64_t>(grid.size()), 1,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                        const auto &[rank, count] =
                            grid[static_cast<size_t>(i)];
                        replay[static_cast<size_t>(i)] =
                            evaluateCandidate(rank, count, &spans, rootId);
                    }
                });
        }
        for (size_t i = 0; i < replay.size(); ++i) {
            const lrd::CandidateRecord &a = replay[i];
            const lrd::CandidateRecord *b =
                i < last_.explored.size() ? &last_.explored[i] : nullptr;
            if (b == nullptr || a.failed || b->failed
                || std::memcmp(&a.accuracy, &b->accuracy, sizeof(double))
                       != 0
                || std::memcmp(&a.edp, &b->edp, sizeof(double)) != 0
                || std::memcmp(&a.reduction, &b->reduction, sizeof(double))
                       != 0) {
                problems.push_back(strCat("dse replay: candidate ", i,
                                          " differs from the sweep"));
                break;
            }
        }
        for (const char *phase : {"deserialize", "decompose", "evaluate",
                                  "estimate"})
            layers.setTiming(strCat("dse.", phase, "_ms"),
                             summarize(spans.durationsMs(
                                 strCat("dse.", phase))));

        // The same sweep on one thread: the parallel speed-up, and a
        // digest that must not depend on the thread count.
        spans.beginRun("dse single-thread sweep");
        const int threads = lrd::parallelWorkers();
        const std::string parallelDigest = digestOf(last_);
        lrd::ThreadPool::instance().resize(1);
        const Clock::time_point t0 = Clock::now();
        lrd::OptimizerResult serial;
        {
            ScopedSpan span(&spans, "dse.sweep_serial");
            serial = lrd::optimizeDecomposition(bytes_, *world_, opts_);
        }
        const double serialSeconds = secondsSince(t0);
        lrd::ThreadPool::instance().resize(threads);
        const std::string serialDigest = digestOf(serial);
        if (serialDigest != parallelDigest)
            problems.push_back(strCat("dse: single-thread sweep digest ",
                                      serialDigest, " != ", threads,
                                      "-thread digest ", parallelDigest));
        std::printf("dse.sweep_serial_s       %.6g s  (one pool thread, "
                    "digest %s)\n",
                    serialSeconds, serialDigest.c_str());
        layers.set("parallel.sweep_speedup",
                   serialSeconds / cycleSeconds);
    }

  private:
    /** One candidate through the sweep's per-candidate calls. */
    lrd::CandidateRecord
    evaluateCandidate(int64_t rank, int count, SpanRecorder *spans,
                      int64_t parent) const
    {
        ScopedSpan span(spans, "dse.candidate", parent);
        lrd::CandidateRecord rec;
        rec.config = lrd::DecompConfig::allTensors(
            cfg_, lrd::spreadSchedule(static_cast<int>(cfg_.nLayers), count),
            rank);
        std::unique_ptr<lrd::TransformerModel> model;
        {
            ScopedSpan phase(spans, "dse.deserialize");
            model = std::make_unique<lrd::TransformerModel>(
                lrd::TransformerModel::deserialize(bytes_));
        }
        lrd::Status decomposed;
        {
            ScopedSpan phase(spans, "dse.decompose");
            decomposed = rec.config.applyTo(*model);
        }
        if (!decomposed.ok()) {
            rec.failed = true;
            rec.failure = decomposed.toString();
            return rec;
        }
        {
            ScopedSpan phase(spans, "dse.evaluate");
            lrd::Evaluator ev(*model, *world_,
                              lrd::EvalOptions{opts_.evalTasks,
                                               opts_.evalSeed, false});
            rec.accuracy = ev.aggregateAccuracy();
        }
        {
            // The optimizer projects EDP onto the Llama2-7B shape at
            // the candidate's parameter reduction.
            ScopedSpan phase(spans, "dse.estimate");
            rec.reduction = rec.config.parameterReduction(cfg_);
            const lrd::ModelConfig shape = lrd::llama2_7bConfig();
            const lrd::InferenceEstimate est = lrd::estimateGeneration(
                shape, lrd::scheduleForReduction(shape, rec.reduction),
                opts_.device, opts_.workload);
            rec.latencySec = est.latencySec;
            rec.energyJ = est.energyJoules;
            rec.edp = est.latencySec * est.energyJoules;
        }
        return rec;
    }

    /** Every record's config and f64 bits, then the best config. */
    static std::string
    digestOf(const lrd::OptimizerResult &r)
    {
        Digest d;
        for (const lrd::CandidateRecord &rec : r.explored) {
            d.add(rec.config.describe());
            d.add(rec.accuracy);
            d.add(rec.edp);
            d.add(rec.reduction);
        }
        d.add(r.best.config.describe());
        return d.hex();
    }

    PassResult
    check(const lrd::OptimizerResult &r) const
    {
        PassResult p;
        const auto expected =
            static_cast<int64_t>(opts_.candidateRanks.size()) * cfg_.nLayers;
        p.items = expected;
        p.failed = r.numFailed
                   + std::max<int64_t>(
                       0, expected
                              - static_cast<int64_t>(r.explored.size()));
        p.completed = expected - p.failed;
        if (r.gridSize != expected)
            p.problems.push_back(strCat("dse: gridSize ", r.gridSize,
                                        " != |ranks| x nLayers = ",
                                        expected));
        if (static_cast<int64_t>(r.explored.size()) != expected)
            p.problems.push_back(strCat("dse: ", r.explored.size(),
                                        " records, want ", expected));
        if (r.cancelled || !r.status.ok())
            p.problems.push_back("dse: sweep stopped early: "
                                 + r.status.toString());
        p.digest = digestOf(r);
        return p;
    }

    lrd::OptimizerOptions opts_;
    lrd::ModelConfig cfg_;
    std::vector<uint8_t> bytes_;
    std::unique_ptr<lrd::World> world_;
    lrd::OptimizerResult last_;
};

/**
 * eval_suite.dense / eval_suite.lowrank: the full 7-benchmark suite
 * (six log-likelihood multiple-choice tasks over copied KV sessions
 * plus GSM8K greedy decode) on one model.
 */
class EvalSuite final : public Workload
{
  public:
    EvalSuite(uint64_t seed, bool lowRank) : seed_(seed), lowRank_(lowRank)
    {
    }

    const char *unitName() const override { return "items"; }
    const char *
    what() const override
    {
        return lowRank_
                   ? "Evaluator over all 7 benchmarks x 120 items on "
                     "scheduleForReduction(cfg, 0.5), applied at set-up"
                   : "Evaluator over all 7 benchmarks x 120 items on the "
                     "dense checkpoint";
    }
    const char *
    why() const override
    {
        return lowRank_
                   ? "the factorized inference path with no SVD in the "
                     "timed region; today it scores fewer items/s than "
                     "dense despite fewer MACs"
                   : "model, tensor and eval do all the work and no SVD "
                     "runs, so a decomposition change must read no "
                     "change; guards the dense path";
    }

    void
    setUp(SpanRecorder *spans) override
    {
        model_.reset();
        world_.reset();
        model_ = loadCheckpoint(spans);
        if (lowRank_) {
            const lrd::DecompConfig gamma = lrd::scheduleForReduction(
                model_->config(), kLowRankReduction);
            ScopedSpan span(spans, "model.decompose");
            const lrd::Status s = gamma.applyTo(*model_);
            if (!s.ok())
                throw std::runtime_error("low-rank set-up: "
                                         + s.toString());
            describe_ = gamma.describe();
        }
        ScopedSpan span(spans, "train.world");
        world_ = std::make_unique<lrd::World>();
    }

    const char *warmUpName() const override { return "one full suite pass"; }
    void warmUp() override { (void)pass(0, nullptr); }

    PassResult
    pass(int, SpanRecorder *spans) override
    {
        lrd::Evaluator ev(*model_, *world_,
                          lrd::EvalOptions{kEvalTasks, seed_, false});
        PassResult p;
        Digest d;
        correct_.clear();
        for (lrd::BenchmarkKind kind : lrd::allBenchmarks()) {
            lrd::EvalResult r;
            {
                ScopedSpan span(spans, kind == lrd::BenchmarkKind::Gsm8k
                                           ? "eval.gen"
                                           : "eval.mc");
                r = ev.run(kind);
            }
            const std::string name = lrd::benchmarkName(kind);
            p.items += kEvalTasks;
            const int scored = r.numTasks - r.numSkipped - r.numFailed;
            p.completed += scored;
            p.failed += kEvalTasks - scored;
            if (r.numTasks != kEvalTasks || r.numSkipped != 0
                || r.numFailed != 0 || !r.status.ok())
                p.problems.push_back(strCat(name, ": ", scored, " of ",
                                            kEvalTasks, " items scored (",
                                            r.status.toString(), ")"));
            d.add(name);
            d.add(r.numCorrect);
            correct_.emplace_back(name, r.numCorrect);
        }
        p.digest = d.hex();
        return p;
    }

    void
    report(const std::vector<double> &segmentSeconds,
           size_t passes) const override
    {
        std::printf("eval.%s_items_per_s%s %.6g items/s  (median of %zu "
                    "passes)\n",
                    lowRank_ ? "lowrank" : "dense", lowRank_ ? "" : "  ",
                    7.0 * kEvalTasks / segmentSeconds.front(), passes);
        if (lowRank_)
            std::printf("eval.model               %s\n", describe_.c_str());
        std::string counts;
        for (const auto &[name, correct] : correct_)
            counts += strCat(counts.empty() ? "" : ", ", name, " ",
                             correct, "/", kEvalTasks);
        std::printf("eval.correct             %s\n", counts.c_str());
    }

    void
    traceLayers(SpanRecorder &spans, LayerMetrics &layers, double,
                std::vector<std::string> &) override
    {
        for (const char *kind : {"mc", "gen"}) {
            std::vector<double> perItem;
            for (double ms : spans.durationsMs(strCat("eval.", kind)))
                perItem.push_back(ms / kEvalTasks);
            layers.setTiming(strCat("eval.", kind, "_item_ms"),
                             summarize(perItem));
        }
    }

  private:
    uint64_t seed_;
    bool lowRank_;
    std::string describe_;
    std::unique_ptr<lrd::TransformerModel> model_;
    std::unique_ptr<lrd::World> world_;
    std::vector<std::pair<std::string, int>> correct_;
};

/**
 * serve_openloop: Server::run on open-loop arrivals with seeded gaps
 * of 0-1 tick (about 2 requests per tick), maxBatch 4, queue 16 and a
 * rank-2 fallback model. The arrivals come as 8 segments of 500
 * requests, each from its own seed drawn from --seed, and each pass
 * serves one segment. The shrunk batch ceiling (2 per tick) equals the
 * arrival rate, so how long the ladder dwells in RankFallback swings
 * widely from one arrival trace to the next; a cycle over independent
 * segments keeps the throughput from hinging on one trace.
 */
class ServeOpenLoop final : public Workload
{
  public:
    explicit ServeOpenLoop(uint64_t seed) : seed_(seed) {}

    const char *unitName() const override { return "requests"; }
    const char *
    what() const override
    {
        return "Server::run on 8 segments x 500 open-loop requests, "
               "arrival gaps 0-1 tick, maxBatch 4, queue 16, fallback "
               "rank 2";
    }
    const char *
    why() const override
    {
        return "the only workload where serve works: admission, queue, "
               "ladder (reaches RankFallback) and batcher all run, and "
               "each tick fans at most 4 items over the pool";
    }

    void
    setUp(SpanRecorder *spans) override
    {
        server_.reset();
        model_.reset();
        model_ = loadCheckpoint(spans);
        {
            ScopedSpan span(spans, "serve.ctor");
            server_ = std::make_unique<lrd::Server>(*model_, options());
        }
        if (!server_->hasFallbackModel())
            throw std::runtime_error("serve set-up: no fallback model");
        ScopedSpan span(spans, "serve.workload");
        segments_.clear();
        lrd::Rng seeds(seed_);
        for (int k = 0; k < kServeSegments; ++k) {
            lrd::WorkloadOptions w;
            w.numRequests = kServeSegmentRequests;
            w.maxArrivalGapTicks = 1;
            w.deadlineTicks = options().defaultDeadlineTicks;
            w.seed = seeds.next();
            segments_.push_back(
                lrd::makeSyntheticWorkload(model_->config(), w));
        }
        stats_.assign(segments_.size(), lrd::ServeStats{});
        latencies_.assign(segments_.size(), {});
    }

    const char *
    warmUpName() const override
    {
        return "one Server::run over the first segment";
    }
    void warmUp() override { (void)server_->run(segments_.front()); }

    int segments() const override { return kServeSegments; }

    PassResult
    pass(int segment, SpanRecorder *spans) override
    {
        const std::vector<lrd::ServeRequest> &requests =
            segments_[static_cast<size_t>(segment)];
        lrd::ServeReport rep;
        {
            ScopedSpan span(spans, "serve.run");
            rep = server_->run(requests);
        }
        const lrd::ServeStats &s = rep.stats;
        stats_[static_cast<size_t>(segment)] = s;

        // Shed and deadline-missed requests are the server's designed
        // answer to overload, not faults: they leave items_per_s, which
        // counts answered requests, and are reported on their own.
        // Cancelled and undeliverable requests are failures.
        PassResult p;
        const auto n = static_cast<int64_t>(requests.size());
        p.items = n;
        p.completed = s.responded;
        p.failed = s.cancelled + s.unavailable;
        int64_t terminal = 0;
        std::vector<int64_t> &latencies =
            latencies_[static_cast<size_t>(segment)];
        latencies.clear();
        Digest d; // The fields `lrdtool serve` digests.
        for (const lrd::ServeResponse &r : rep.responses) {
            terminal += lrd::serveOutcomeTerminal(r.outcome) ? 1 : 0;
            if (r.outcome == lrd::ServeOutcome::Responded)
                latencies.push_back(
                    r.settledTick
                    - requests[static_cast<size_t>(r.id)].arrivalTick);
            d.add(r.id);
            d.add(static_cast<int32_t>(r.outcome));
            d.add(static_cast<int32_t>(r.degraded));
            d.add(r.score);
            d.add(r.settledTick);
        }
        if (static_cast<int64_t>(rep.responses.size()) != n || terminal != n)
            p.problems.push_back(strCat("serve: ", terminal, " of ", n,
                                        " requests reached a terminal "
                                        "outcome"));
        if (s.responded + s.shed + s.deadlineMissed + s.cancelled
                + s.unavailable
            != n)
            p.problems.push_back("serve: outcome counts do not sum to "
                                 "the request count");
        if (static_cast<int64_t>(latencies.size()) != s.responded)
            p.problems.push_back("serve: responded count disagrees with "
                                 "the responses");
        if (!rep.status.ok())
            p.problems.push_back("serve: " + rep.status.toString());
        p.digest = d.hex();
        return p;
    }

    void
    report(const std::vector<double> &segmentSeconds,
           size_t passes) const override
    {
        const lrd::ServeStats s = cycleStats();
        double seconds = 0.0;
        for (double x : segmentSeconds)
            seconds += x;
        std::printf("serve.throughput_rps     %.6g req/s  (answered, wall "
                    "clock; per-segment medians of %zu passes)\n",
                    static_cast<double>(s.responded) / seconds, passes);
        std::printf("serve.p50_latency_ticks  %.6g ticks\n",
                    s.p50LatencyTicks);
        std::printf("serve.p99_latency_ticks  %.6g ticks\n",
                    s.p99LatencyTicks);
        std::printf("serve.degraded_share     %.6g  (%lld fallback "
                    "answers / %lld answered)\n",
                    degradedShare(s),
                    static_cast<long long>(s.degradedResponses),
                    static_cast<long long>(s.responded));
        std::printf("serve.unanswered_share   %.6g  (shed and "
                    "deadline-missed / requests)\n",
                    static_cast<double>(s.shed + s.deadlineMissed)
                        / (kServeSegments * kServeSegmentRequests));
        std::printf("serve.outcomes           responded %lld, shed %lld, "
                    "deadline-missed %lld, cancelled %lld, unavailable "
                    "%lld; deepest rung %s\n",
                    static_cast<long long>(s.responded),
                    static_cast<long long>(s.shed),
                    static_cast<long long>(s.deadlineMissed),
                    static_cast<long long>(s.cancelled),
                    static_cast<long long>(s.unavailable),
                    lrd::serviceLevelName(
                        static_cast<lrd::ServiceLevel>(s.maxServiceLevel)));
    }

    void
    traceLayers(SpanRecorder &spans, LayerMetrics &layers,
                double cycleSeconds, std::vector<std::string> &) override
    {
        const lrd::ServeStats s = cycleStats();
        layers.setTiming("serve.ctor_ms",
                         summarize(spans.durationsMs("serve.ctor")));
        layers.set("serve.batch_ms",
                   s.batches > 0 ? 1000.0 * cycleSeconds
                                       / static_cast<double>(s.batches)
                                 : 0.0);
        layers.set("serve.batches", static_cast<double>(s.batches));
        layers.set("serve.client_retries",
                   static_cast<double>(s.clientRetries));
        layers.set("serve.shed", static_cast<double>(s.shed));
        layers.set("serve.admit_ratio",
                   s.offered > 0 ? static_cast<double>(s.admitted)
                                       / static_cast<double>(s.offered)
                                 : 0.0);
        layers.set("serve.max_ladder_level",
                   static_cast<double>(s.maxServiceLevel));
        layers.set("serve.p50_latency_ticks", s.p50LatencyTicks);
        layers.set("serve.p99_latency_ticks", s.p99LatencyTicks);
        layers.set("serve.degraded_share", degradedShare(s));
    }

    /** Items per executed batch. */
    void
    traceCounters(const CounterDelta &c, LayerMetrics &layers) const override
    {
        const lrd::ServeStats s = cycleStats();
        layers.set("serve.batch_size_mean",
                   s.batches > 0 ? static_cast<double>(c["serve.batch.items"])
                                       / static_cast<double>(s.batches)
                                 : 0.0);
    }

  private:
    static lrd::ServeOptions
    options()
    {
        lrd::ServeOptions o; // Not fromEnv(): LRD_SERVE_* cannot leak in.
        o.queueCapacity = 16;
        o.maxBatch = 4;
        o.fallbackRank = 2;
        return o;
    }

    /**
     * Stats of one cycle: every segment's counts summed, and latency
     * quantiles over all its answered requests (nearest rank, as
     * Server::run computes them for one run).
     */
    lrd::ServeStats
    cycleStats() const
    {
        lrd::ServeStats sum;
        std::vector<int64_t> latencies;
        for (size_t k = 0; k < stats_.size(); ++k) {
            const lrd::ServeStats &s = stats_[k];
            sum.offered += s.offered;
            sum.admitted += s.admitted;
            sum.responded += s.responded;
            sum.degradedResponses += s.degradedResponses;
            sum.shed += s.shed;
            sum.deadlineMissed += s.deadlineMissed;
            sum.cancelled += s.cancelled;
            sum.unavailable += s.unavailable;
            sum.clientRetries += s.clientRetries;
            sum.batches += s.batches;
            sum.ticks += s.ticks;
            sum.maxServiceLevel =
                std::max(sum.maxServiceLevel, s.maxServiceLevel);
            latencies.insert(latencies.end(), latencies_[k].begin(),
                             latencies_[k].end());
        }
        std::sort(latencies.begin(), latencies.end());
        const auto quantile = [&](double q) {
            if (latencies.empty())
                return 0.0;
            const auto rank = std::min(
                latencies.size() - 1,
                static_cast<size_t>(q
                                    * static_cast<double>(latencies.size())));
            return static_cast<double>(latencies[rank]);
        };
        sum.p50LatencyTicks = quantile(0.50);
        sum.p99LatencyTicks = quantile(0.99);
        return sum;
    }

    static double
    degradedShare(const lrd::ServeStats &s)
    {
        return s.responded > 0 ? static_cast<double>(s.degradedResponses)
                                     / static_cast<double>(s.responded)
                               : 0.0;
    }

    uint64_t seed_;
    std::unique_ptr<lrd::TransformerModel> model_;
    std::unique_ptr<lrd::Server> server_;
    std::vector<std::vector<lrd::ServeRequest>> segments_;
    /** Each segment's last stats and answered-request latencies. */
    std::vector<lrd::ServeStats> stats_;
    std::vector<std::vector<int64_t>> latencies_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "dse_sweep")
        return std::make_unique<DseSweep>(seed);
    if (name == "eval_suite.dense")
        return std::make_unique<EvalSuite>(seed, false);
    if (name == "eval_suite.lowrank")
        return std::make_unique<EvalSuite>(seed, true);
    if (name == "serve_openloop")
        return std::make_unique<ServeOpenLoop>(seed);
    throw std::runtime_error("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// Layer probes: the same public calls timed on every traced run.
// ---------------------------------------------------------------------

/** Repeat fn() n times, one span named `name` around each call. */
template <class Fn>
std::vector<double>
timeCalls(SpanRecorder &spans, const std::string &name, int n, Fn &&fn)
{
    for (int i = 0; i < n; ++i) {
        ScopedSpan span(&spans, name.c_str());
        fn(i);
    }
    return spans.durationsMs(name);
}

std::vector<double>
scaled(std::vector<double> v, double factor)
{
    for (double &x : v)
        x *= factor;
    return v;
}

void
probeLayers(uint64_t seed, SpanRecorder &spans, LayerMetrics &layers)
{
    spans.beginRun("layer probes");
    const std::vector<uint8_t> checkpoint = readCheckpoint();
    lrd::TransformerModel dense =
        lrd::TransformerModel::deserialize(checkpoint);
    lrd::TransformerModel lowrank =
        lrd::TransformerModel::deserialize(checkpoint);
    const lrd::ModelConfig cfg = dense.config();
    const lrd::DecompConfig gamma =
        lrd::scheduleForReduction(cfg, kLowRankReduction);
    const lrd::Status applied = gamma.applyTo(lowrank);
    if (!applied.ok())
        throw std::runtime_error("probe set-up: " + applied.toString());
    const int probeLayer = gamma.layers.front(); // Decomposed in lowrank.

    lrd::Rng rng(seed);
    lrd::TokenSeq prompt(kProbeTokens);
    for (int &t : prompt)
        t = static_cast<int>(rng.next() % static_cast<uint64_t>(cfg.vocabSize));
    const lrd::Tensor x =
        lrd::Tensor::randn({kProbeTokens, cfg.dModel}, rng);
    const lrd::DeviceSpec cpu = lrd::cpuCore();

    for (auto [variant, model, config] :
         {std::tuple{"dense", &dense, lrd::DecompConfig::identity()},
          std::tuple{"lowrank", &lowrank, gamma}}) {
        const std::string v = variant;
        layers.setTiming(
            "model.prefill_ms." + v,
            summarize(timeCalls(spans, "model.prefill." + v, 200,
                                [&](int) { (void)model->forward(prompt); })));
        // Decode one token after a half-length prefill; the session
        // copy sits outside the span.
        lrd::InferenceSession base(*model);
        (void)base.append(lrd::TokenSeq(prompt.begin(),
                                        prompt.begin() + kProbeTokens / 2));
        for (int i = 0; i < 1000; ++i) {
            lrd::InferenceSession session = base;
            ScopedSpan span(&spans, ("model.decode_step." + v).c_str());
            (void)session.append({prompt[static_cast<size_t>(
                kProbeTokens / 2 + i % (kProbeTokens / 2))]});
        }
        layers.setTiming(
            "model.decode_step_us." + v,
            summarize(scaled(spans.durationsMs("model.decode_step." + v),
                             1000.0)));
        layers.setTiming(
            "model.block_us." + v,
            summarize(scaled(
                timeCalls(spans, "model.block." + v, 400,
                          [&](int) {
                              (void)model->block(probeLayer).forward(x);
                          }),
                1000.0)));
        // Roofline of the same block at the same shape, fp32 weights.
        double roofUs = 0.0;
        const std::string prefix = strCat("layer", probeLayer, ".");
        for (const lrd::OpProfile &op : lrd::profileTransformer(
                 cfg, config, lrd::WorkloadParams{1, kProbeTokens, 4}))
            if (op.name.rfind(prefix, 0) == 0)
                roofUs += 1e6
                          * lrd::roofline(op.macs, op.weightBytes, cpu)
                                .latencySec;
        layers.set("hw.block_roofline_us." + v, roofUs);
    }
    layers.set("hw.cpu_peak_gmacs", cpu.peakMacsPerSec / 1e9);

    const lrd::Tensor a = lrd::Tensor::randn({256, 256}, rng);
    const lrd::Tensor b = lrd::Tensor::randn({256, 256}, rng);
    const double matmulMs = median(timeCalls(
        spans, "tensor.matmul_256", 50,
        [&](int) { (void)lrd::matmul(a, b); }));
    layers.set("tensor.peak_gmacs", 256.0 * 256.0 * 256.0
                                        / (matmulMs / 1000.0) / 1e9);

    // svd() of every trained weight a sweep decomposes.
    std::vector<const lrd::Tensor *> weights;
    for (int64_t l = 0; l < cfg.nLayers; ++l)
        for (lrd::WeightKind kind : lrd::decomposableKinds(cfg.arch))
            weights.push_back(&dense.linear(l, kind).weight().value);
    layers.setTiming(
        "linalg.svd_ms",
        summarize(timeCalls(spans, "linalg.svd", static_cast<int>(
                                                      weights.size()),
                            [&](int i) {
                                (void)lrd::svd(
                                    *weights[static_cast<size_t>(i)]);
                            })));
}

// ---------------------------------------------------------------------
// The run loop shared by every workload.
// ---------------------------------------------------------------------

/** Timed passes; pass i ran segment i mod Workload::segments(). */
struct Passes
{
    std::vector<int> segment;
    std::vector<double> seconds;
    std::vector<PassResult> results;

    /** Each segment's median seconds (every segment must have run). */
    std::vector<double>
    segmentSeconds(int segments) const
    {
        std::vector<double> out;
        for (int k = 0; k < segments; ++k) {
            std::vector<double> mine;
            for (size_t i = 0; i < seconds.size(); ++i)
                if (segment[i] == k)
                    mine.push_back(seconds[i]);
            out.push_back(median(mine));
        }
        return out;
    }

    /** Seconds of one cycle over every segment: their medians summed. */
    double
    cycleSeconds(int segments) const
    {
        double sum = 0.0;
        for (double s : segmentSeconds(segments))
            sum += s;
        return sum;
    }
};

/**
 * Timed passes, cycling over the workload's segments, until `budget`
 * seconds have elapsed and at least `minPasses` ran, or `maxPasses`.
 */
void
runPasses(Workload &w, SpanRecorder *spans, double budget, int minPasses,
          int maxPasses, const char *label, Passes &out)
{
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < maxPasses; ++i) {
        const int segment = i % w.segments();
        if (spans != nullptr)
            spans->beginRun(strCat(label, " ", i));
        const Clock::time_point t0 = Clock::now();
        PassResult r;
        {
            ScopedSpan span(spans, "bench.pass");
            r = w.pass(segment, spans);
        }
        out.segment.push_back(segment);
        out.seconds.push_back(secondsSince(t0));
        std::printf("%s %d (segment %d): %.6g s, %lld of %lld %s "
                    "completed, %lld failed, digest %s\n",
                    label, i, segment, out.seconds.back(),
                    static_cast<long long>(r.completed),
                    static_cast<long long>(r.items), w.unitName(),
                    static_cast<long long>(r.failed), r.digest.c_str());
        std::fflush(stdout);
        out.results.push_back(std::move(r));
        if (i + 1 >= minPasses && secondsSince(start) >= budget)
            break;
    }
}

/**
 * Compare a pass digest with the one the first run of this
 * (workload, seed) recorded; record it when there is none yet.
 */
void
checkStoredDigest(const RunOptions &opts, const std::string &digest,
                  std::vector<std::string> &problems)
{
    if (opts.digestDir.empty())
        return;
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts.digestDir, ec);
    const fs::path file = fs::path(opts.digestDir)
                          / strCat(opts.workload, "-seed", opts.seed, ".txt");
    std::ifstream in(file);
    std::string stored;
    if (in >> stored) {
        if (stored != digest)
            problems.push_back(strCat("digest ", digest, " differs from ",
                                      stored, " recorded by an earlier "
                                      "run of this seed"));
        return;
    }
    std::ofstream(file) << digest << "\n";
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"dse_sweep", "eval_suite.dense", "eval_suite.lowrank",
            "serve_openloop"};
}

void
prepareCheckpoint()
{
    const Clock::time_point t0 = Clock::now();
    const std::vector<uint8_t> bytes = lrd::pretrainedTinyLlama().serialize();
    lrd::Result<std::vector<uint8_t>> have = lrd::cacheRead(kCheckpointEntry);
    if (!have.ok() || have.value() != bytes)
        lrd::cacheWrite(kCheckpointEntry, bytes);
    std::fprintf(stderr, "pipebench: checkpoint %s ready in %.1f s\n",
                 lrd::cachePath(kCheckpointEntry).c_str(),
                 secondsSince(t0));
}

RunOutcome
runWorkload(const RunOptions &opts)
{
    std::unique_ptr<Workload> w = makeWorkload(opts.workload, opts.seed);
    SpanRecorder recorder;
    SpanRecorder *spans = opts.traced ? &recorder : nullptr;
    std::printf("# workload %s: %s\n# why: %s\n", opts.workload.c_str(),
                w->what(), w->why());

    std::vector<double> setupSeconds;
    std::string setupList;
    const Clock::time_point setupStart = Clock::now();
    for (int i = 0; i < kMaxSetUps; ++i) {
        if (i >= kMinSetUps && secondsSince(setupStart) >= kSetUpSeconds)
            break;
        if (spans != nullptr)
            spans->beginRun(strCat("setup ", i));
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(spans, "bench.setup");
            w->setUp(spans);
        }
        setupSeconds.push_back(secondsSince(t0));
        setupList += strCat(" ", setupSeconds.back());
    }
    w->warmUp();
    std::printf("# setup_s is the median of %zu set-ups and excludes the "
                "untimed warm-up (%s); set-ups (s):%s\n",
                setupSeconds.size(), w->warmUpName(), setupList.c_str());

    // Untraced passes: the end-to-end measurement, and in a traced run
    // the baseline that the tracing-overhead ratio divides by.
    const int segments = w->segments();
    Passes untraced;
    runPasses(*w, nullptr, opts.traced ? opts.seconds / 4 : opts.seconds,
              segments, 1 << 20, "pass", untraced);
    const double cycleSeconds = untraced.cycleSeconds(segments);

    RunOutcome out;
    LayerMetrics layers;
    Passes traced;
    if (opts.traced) {
        // As many traced passes as untraced ones. Counters are snapshot
        // deltas over the first cycle, so they are per cycle.
        lrd::MetricsRegistry &registry = lrd::MetricsRegistry::instance();
        registry.setEnabled(true);
        CounterDelta c;
        c.before = counterTotals();
        const int64_t allocsBefore = lrd::tensorArenaStats().allocCount;
        runPasses(*w, spans, 0.0, segments, segments, "traced pass", traced);
        c.after = counterTotals();
        const int64_t allocs =
            lrd::tensorArenaStats().allocCount - allocsBefore;
        const int more = static_cast<int>(untraced.seconds.size()) - segments;
        if (more > 0)
            runPasses(*w, spans, 0.0, more, more, "traced pass", traced);
        registry.setEnabled(false);

        const auto gemmCalls = static_cast<double>(c["gemm.calls"]);
        const auto gemmMacs = static_cast<double>(c["gemm.macs"]);
        layers.set("linalg.svd_calls",
                   static_cast<double>(c["svd.calls"]));
        layers.set("linalg.jacobi_sweeps",
                   static_cast<double>(c["jacobi.sweeps"]));
        layers.set("tensor.gemm_calls", gemmCalls);
        layers.set("tensor.gemm_macs", gemmMacs);
        layers.set("tensor.macs_per_call",
                   gemmCalls > 0 ? gemmMacs / gemmCalls : 0.0);
        layers.set("tensor.packed_mb",
                   static_cast<double>(c["gemm.packedBytesA"]
                                       + c["gemm.packedBytesB"])
                       / 1e6);
        layers.set("tensor.arena_allocs", static_cast<double>(allocs));
        layers.set("tensor.effective_gmacs", gemmMacs / cycleSeconds / 1e9);
        layers.set("parallel.pool_chunks",
                   static_cast<double>(c["pool.chunks"]));
        layers.set("parallel.idle_waits",
                   static_cast<double>(c["pool.idleWaits"]));
        layers.set("model.fused_forwards",
                   static_cast<double>(c["model.linear.fusedForwards"]));
        layers.set("model.weight_packs",
                   static_cast<double>(c["model.linear.weightPacks"]));
        layers.set("eval.items", static_cast<double>(c["eval.items"]));
        w->traceCounters(c, layers);
        layers.set("obs.trace_overhead",
                   traced.cycleSeconds(segments) / cycleSeconds - 1.0);

        w->traceLayers(recorder, layers, cycleSeconds, out.problems);
        probeLayers(opts.seed, recorder, layers);
    }

    // Correctness: every pass's own checks, one digest for every pass
    // of a segment, and the digest earlier runs of this seed recorded.
    int64_t failedUnits = 0;
    size_t passes = 0;
    for (const Passes *run : {&untraced, &traced}) {
        for (size_t i = 0; i < run->results.size(); ++i, ++passes) {
            const PassResult &r = run->results[i];
            const std::string &first =
                untraced.results[static_cast<size_t>(run->segment[i])].digest;
            out.attempted += r.items;
            failedUnits += r.failed;
            out.problems.insert(out.problems.end(), r.problems.begin(),
                                r.problems.end());
            if (r.digest != first)
                out.problems.push_back(strCat(
                    "segment ", run->segment[i], " digest ", r.digest,
                    " != ", first, " of its first pass"));
        }
    }
    Digest cycle;
    for (int k = 0; k < segments; ++k)
        cycle.add(untraced.results[static_cast<size_t>(k)].digest);
    checkStoredDigest(opts, cycle.hex(), out.problems);
    out.failed = failedUnits + static_cast<int64_t>(out.problems.size());
    if (failedUnits > 0)
        out.problems.push_back(strCat(failedUnits, " ", w->unitName(),
                                      " failed"));

    std::printf("\n");
    w->report(untraced.segmentSeconds(segments), untraced.seconds.size());
    std::printf("failed_share             %.6g  (%lld failed / %lld "
                "attempted)\n",
                out.attempted > 0 ? static_cast<double>(out.failed)
                                        / static_cast<double>(out.attempted)
                                  : 0.0,
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));
    std::printf("checks                   %s\n",
                out.problems.empty()
                    ? strCat("ok: every segment's digest identical over ",
                             passes, " passes; cycle digest ", cycle.hex())
                          .c_str()
                    : "FAILED");
    for (const std::string &p : out.problems)
        std::printf("  check failed: %s\n", p.c_str());

    if (!opts.traced) {
        int64_t completed = 0; // Per cycle: each segment's first pass.
        for (int k = 0; k < segments; ++k)
            completed += untraced.results[static_cast<size_t>(k)].completed;
        out.metrics = {
            {"setup_s", median(setupSeconds), "s"},
            {"peak_rss_mb",
             static_cast<double>(lrd::sampleProcMem().peakRssBytes) / 1e6,
             "MB"},
            {"items_per_s",
             static_cast<double>(completed) / cycleSeconds, "1/s"},
        };
        std::printf("\n");
        for (const Metric &m : out.metrics)
            std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        return out;
    }

    out.metrics = layers.finish();
    std::printf("\n%-8s %-28s %8s %12s %12s\n", "layer", "span", "calls",
                "total ms", "self ms");
    std::map<std::string, double> layerSelf;
    for (const SelfTime &row : recorder.selfTimes()) {
        const std::string layer = row.name.substr(0, row.name.find('.'));
        layerSelf[layer] += row.selfMs;
        std::printf("%-8s %-28s %8lld %12.3f %12.3f\n", layer.c_str(),
                    row.name.c_str(), static_cast<long long>(row.calls),
                    row.totalMs, row.selfMs);
    }
    for (const auto &[layer, ms] : layerSelf)
        std::printf("%-8s %-28s %8s %12s %12.3f\n", layer.c_str(),
                    "(layer self time)", "", "", ms);
    if (!opts.spansPath.empty()) {
        if (recorder.writeChromeTrace(opts.spansPath, opts.provenance))
            std::printf("spans written to %s\n", opts.spansPath.c_str());
        else {
            out.problems.push_back("cannot write " + opts.spansPath);
            ++out.failed;
        }
    }
    return out;
}

} // namespace pipebench
