#include "evaluator.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

namespace {

/**
 * Run one item's scoring body and return the item's Status. The body
 * writes its answer into the item's fixed result slot; a numeric
 * fault noted while it runs (NaN guard) or an injected "eval.item"
 * allocation failure marks the item failed, and the fold applies the
 * recovery policy's budget. Runs entirely on the calling worker, so
 * the per-item outcome is independent of the thread partition.
 */
template <class Body>
Status
scoreWithPolicy(const Body &body)
{
    pollCancelFault("eval.item");
    if (cancelRequested())
        return cancelStatus("eval.item");
    (void)takeNumericFault(); // Drop any stale note from a previous item.
    if (faultAt("eval.item", FaultKind::Alloc))
        return Status(StatusCode::ResourceExhausted, "eval.item",
                      "injected allocation failure");
    body();
    // The pool drops work it has not started once cancellation is
    // requested, so an item the cancel reached mid-forward was never
    // fully scored.
    if (cancelRequested())
        return cancelStatus("eval.item");
    return takeNumericFault();
}

/**
 * Score one multiple-choice item on a decoder model by summed
 * log-likelihood of each choice continuation over one KV-cache
 * session: the context is appended once, and the session is rewound
 * to it after each choice.
 */
int
pickCausal(const TransformerModel &model, const McTask &task,
           const EvalOptions &opts)
{
    InferenceSession session(model);
    const Tensor contextLp = logSoftmaxLastDim(session.append(task.context));
    const int64_t contextLen = session.length();

    double bestScore = -std::numeric_limits<double>::infinity();
    int best = 0;
    for (size_t c = 0; c < task.choices.size(); ++c) {
        const TokenSeq &choice = task.choices[c];
        // Every token but the last extends the context; a one-token
        // choice never touches the session.
        double ll = session.scoreContinuation(contextLp, choice);
        session.truncate(contextLen);
        if (opts.lengthNormalize)
            ll /= static_cast<double>(choice.size());
        if (ll > bestScore) {
            bestScore = ll;
            best = static_cast<int>(c);
        }
    }
    return best;
}

/** Score one item on an encoder model by pseudo-log-likelihood. */
int
pickBert(const TransformerModel &model, const World &world,
         const McTask &task, const EvalOptions &opts)
{
    double bestScore = -std::numeric_limits<double>::infinity();
    int best = 0;
    for (size_t c = 0; c < task.choices.size(); ++c) {
        const TokenSeq &choice = task.choices[c];
        TokenSeq seq = task.context;
        seq.insert(seq.end(), choice.begin(), choice.end());
        const size_t start = task.context.size();
        double ll = 0.0;
        for (size_t i = 0; i < choice.size(); ++i) {
            TokenSeq masked = seq;
            masked[start + i] = world.maskToken();
            Tensor logits = model.forward(masked);
            Tensor lp = logSoftmaxLastDim(logits);
            ll += lp(static_cast<int64_t>(start + i), choice[i]);
        }
        if (opts.lengthNormalize)
            ll /= static_cast<double>(choice.size());
        if (ll > bestScore) {
            bestScore = ll;
            best = static_cast<int>(c);
        }
    }
    return best;
}

/** Exact-match correctness of one generative item. */
bool
solveGen(const TransformerModel &model, const World &world,
         const GenTask &task, bool causal)
{
    if (causal) {
        const TokenSeq out = greedyGenerate(
            model, task.prompt, static_cast<int>(task.expected.size()),
            /*stopToken=*/-1);
        return out == task.expected;
    }
    // Encoder models answer by masked-slot prediction.
    TokenSeq seq = task.prompt;
    const size_t slot = seq.size();
    seq.push_back(world.maskToken());
    Tensor logits = model.forward(seq);
    int argmax = 0;
    const int64_t v = logits.dim(1);
    for (int64_t j = 1; j < v; ++j)
        if (logits(static_cast<int64_t>(slot), j)
            > logits(static_cast<int64_t>(slot), argmax))
            argmax = static_cast<int>(j);
    return task.expected.size() == 1 && argmax == task.expected[0];
}

/**
 * Run fn(i) for i in [0, n) across the global thread pool, one item a
 * chunk; each item's forwards run serially on the worker that takes
 * it. Items are independent, so any fixed item partition yields
 * identical results.
 */
template <class Fn>
void
forEachItemParallel(int64_t n, const Fn &fn)
{
    static Counter *items =
        MetricsRegistry::instance().counter("eval.items");
    parallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            LRD_TRACE_SPAN("eval.item");
            items->inc();
            fn(i);
        }
    });
}

/** Sentinel for items a cancel prevented from running. */
Status
notScoredStatus()
{
    return Status(StatusCode::Cancelled, "eval.item",
                  "not scored: cancellation requested before this item "
                  "ran");
}

/**
 * Fold per-item outcomes into an EvalResult. Cancelled items were
 * never scored: they are skipped, excluded from both the accuracy
 * denominator and the failure budget, and a run where anything was
 * skipped carries a non-ok status so callers can mark the result
 * partial.
 */
template <class CorrectAt>
EvalResult
foldItems(const std::vector<Status> &itemStatus, const CorrectAt &correctAt)
{
    EvalResult res;
    Status firstFailure;
    for (size_t i = 0; i < itemStatus.size(); ++i) {
        ++res.numTasks;
        if (itemStatus[i].code() == StatusCode::Cancelled) {
            ++res.numSkipped;
            continue;
        }
        if (!itemStatus[i].ok()) {
            // Degraded items score as incorrect; the budget check
            // below decides whether the run is still trustworthy.
            ++res.numFailed;
            if (firstFailure.ok())
                firstFailure = itemStatus[i];
            continue;
        }
        res.numCorrect += correctAt(i) ? 1 : 0;
    }
    const int attempted = res.numTasks - res.numSkipped;
    res.accuracy = attempted > 0
                       ? static_cast<double>(res.numCorrect) / attempted
                       : 0.0;
    if (attempted > 0)
        enforceFailureBudget("eval", res.numFailed, attempted,
                             firstFailure);
    if (res.numSkipped > 0)
        res.status = cancelStatus("eval.item");
    return res;
}

} // namespace

Evaluator::Evaluator(const TransformerModel &model, const World &world,
                     EvalOptions opts)
    : model_(model), world_(world), opts_(opts)
{
    require(opts_.numTasks > 0, "Evaluator: numTasks must be positive");
}

int
Evaluator::pickChoiceCausal(const McTask &task)
{
    return pickCausal(model_, task, opts_);
}

EvalResult
Evaluator::runMc(BenchmarkKind kind)
{
    const auto tasks =
        makeMcTasks(kind, world_, opts_.numTasks, opts_.seed);
    const bool causal = model_.config().arch == Arch::LlamaStyle;
    const TelemetryPhase phase("eval");
    const auto n = static_cast<int64_t>(tasks.size());
    std::vector<int> picks(tasks.size(), 0);
    // Items dropped by a mid-run cancel keep this sentinel and fold as
    // skipped, not failed.
    std::vector<Status> itemStatus(tasks.size(), notScoredStatus());
    forEachItemParallel(n, [&](int64_t i) {
        const McTask &task = tasks[static_cast<size_t>(i)];
        itemStatus[static_cast<size_t>(i)] = scoreWithPolicy([&] {
            picks[static_cast<size_t>(i)] =
                causal ? pickCausal(model_, task, opts_)
                       : pickBert(model_, world_, task, opts_);
        });
    });
    return foldItems(itemStatus, [&](size_t i) {
        return picks[i] == tasks[i].gold;
    });
}

EvalResult
Evaluator::runGen()
{
    const auto tasks = makeGsm8kTasks(world_, opts_.numTasks, opts_.seed);
    const bool causal = model_.config().arch == Arch::LlamaStyle;
    const TelemetryPhase phase("eval");
    const auto n = static_cast<int64_t>(tasks.size());
    std::vector<uint8_t> correct(tasks.size(), 0);
    std::vector<Status> itemStatus(tasks.size(), notScoredStatus());
    forEachItemParallel(n, [&](int64_t i) {
        itemStatus[static_cast<size_t>(i)] = scoreWithPolicy([&] {
            correct[static_cast<size_t>(i)] =
                solveGen(model_, world_, tasks[static_cast<size_t>(i)],
                         causal)
                    ? 1
                    : 0;
        });
    });
    return foldItems(itemStatus,
                     [&](size_t i) { return correct[i] != 0; });
}

EvalResult
Evaluator::run(BenchmarkKind kind)
{
    if (kind == BenchmarkKind::Gsm8k)
        return runGen();
    return runMc(kind);
}

std::map<BenchmarkKind, EvalResult>
Evaluator::runAll()
{
    std::map<BenchmarkKind, EvalResult> out;
    for (BenchmarkKind kind : allBenchmarks())
        out[kind] = run(kind);
    return out;
}

double
Evaluator::aggregateAccuracy()
{
    const auto all = runAll();
    double sum = 0.0;
    for (const auto &[kind, res] : all)
        sum += res.accuracy;
    return sum / static_cast<double>(all.size());
}

} // namespace lrd
