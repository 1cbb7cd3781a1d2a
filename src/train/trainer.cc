#include "trainer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lrd {

namespace {

/** Payload-format version of trainer checkpoints. */
constexpr uint32_t kTrainCkptVersion = 1;

void
putRngState(ByteWriter &w, const RngState &st)
{
    for (uint64_t s : st.s)
        w.putU64(s);
    w.putU32(st.hasCachedNormal ? 1 : 0);
    w.putF64(st.cachedNormal);
}

RngState
getRngState(ByteReader &r)
{
    RngState st;
    for (uint64_t &s : st.s)
        s = r.getU64();
    st.hasCachedNormal = r.getU32() != 0;
    st.cachedNormal = r.getF64();
    return st;
}

} // namespace

Trainer::Trainer(TransformerModel &model, const World &world,
                 TrainOptions opts)
    : model_(model), world_(world), opts_(opts),
      gen_(world, opts.seed), maskRng_(opts.seed ^ 0xABCD1234U)
{
    require(opts_.seqLen <= model_.config().maxSeq,
            "Trainer: seqLen exceeds model maxSeq");
    require(world_.vocabSize() <= model_.config().vocabSize,
            "Trainer: world vocabulary exceeds model vocabulary");
}

void
Trainer::makeExample(TokenSeq &tokens, std::vector<int> &targets)
{
    tokens = gen_.document(opts_.seqLen);
    targets.assign(tokens.size(), -1);
    if (model_.config().arch == Arch::LlamaStyle) {
        // Next-token prediction.
        for (size_t i = 0; i + 1 < tokens.size(); ++i)
            targets[i] = tokens[i + 1];
        return;
    }
    // Masked-LM: corrupt ~mlmProb of the positions. 80% <mask>,
    // 10% random token, 10% unchanged; supervise all selected
    // positions with the original token.
    for (size_t i = 1; i < tokens.size(); ++i) {
        if (!maskRng_.bernoulli(opts_.mlmProb))
            continue;
        targets[i] = tokens[i];
        const double roll = maskRng_.uniform();
        if (roll < 0.8) {
            tokens[i] = world_.maskToken();
        } else if (roll < 0.9) {
            tokens[i] = static_cast<int>(maskRng_.uniformInt(
                static_cast<uint64_t>(world_.vocabSize())));
        }
    }
    // Guarantee at least one supervised position.
    if (targets[1] < 0) {
        targets[1] = tokens[1];
        tokens[1] = world_.maskToken();
    }
}

void
Trainer::writeTrainCheckpoint(const AdamW &optimizer, int nextStep)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(nextStep));
    w.putBytes(model_.serialize());
    optimizer.serializeState(w);
    putRngState(w, gen_.rng().state());
    putRngState(w, maskRng_.state());
    Status s =
        writeCheckpoint(opts_.checkpointPath, kTrainCkptVersion, w.bytes());
    if (!s.ok()) {
        if (robustPolicy().mode == RobustMode::Strict)
            fatal("trainer: checkpoint failed: " + s.toString());
        warn("trainer: checkpoint skipped; " + s.toString());
    }
}

Status
Trainer::restoreFromCheckpoint(AdamW &optimizer, int &startStep)
{
    Result<std::vector<uint8_t>> payload = readCheckpointWithFallback(
        opts_.checkpointPath, kTrainCkptVersion);
    if (!payload.ok())
        return payload.status();
    ByteReader r(std::move(payload).value());
    const auto nextStep = static_cast<int>(r.getU64());
    TransformerModel restored = TransformerModel::deserialize(r.getBytes());
    const auto restoredParams = restored.parameters();
    const auto params = model_.parameters();
    if (restoredParams.size() != params.size())
        return Status(StatusCode::InvalidArgument, "train.resume",
                      strCat("checkpoint has ", restoredParams.size(),
                             " parameters, this model has ",
                             params.size()));
    for (size_t i = 0; i < params.size(); ++i)
        if (restoredParams[i]->value.storage().size()
            != params[i]->value.storage().size())
            return Status(StatusCode::InvalidArgument, "train.resume",
                          "parameter " + params[i]->name
                              + " shape mismatch against checkpoint");
    for (size_t i = 0; i < params.size(); ++i)
        params[i]->value.storage() = restoredParams[i]->value.storage();
    Status os = optimizer.restoreState(r);
    if (!os.ok())
        return os;
    gen_.rng().setState(getRngState(r));
    maskRng_.setState(getRngState(r));
    startStep = nextStep;
    return Status();
}

double
Trainer::run()
{
    status_ = Status();
    AdamOptions aopts;
    aopts.lr = opts_.lr;
    AdamW optimizer(model_.parameters(), aopts);

    int startStep = 0;
    if (opts_.resume && !opts_.checkpointPath.empty()) {
        Status rs = restoreFromCheckpoint(optimizer, startStep);
        if (rs.ok())
            inform(strCat("trainer: resumed ", opts_.checkpointPath,
                          " at step ", startStep));
        else if (rs.code() == StatusCode::NotFound)
            inform("trainer: no checkpoint yet; starting fresh");
        else
            fatal("trainer: cannot resume: " + rs.toString());
    }

    /*
     * Batch items are independent given the example stream, so each
     * item's gradient is computed on the one shared model into the
     * item's own buffer, and the buffers are reduced in fixed item
     * order. The summation tree is therefore identical at every
     * LRD_THREADS setting: bitwise deterministic training. Examples are
     * always drawn serially so the corpus/mask RNG streams match the
     * sequential trainer.
     */
    ThreadPool &pool = ThreadPool::instance();
    const std::vector<Parameter *> params = model_.parameters();
    Gradients grads(params);
    std::vector<Gradients> itemGrads(static_cast<size_t>(opts_.batchSeqs),
                                     grads);

    Timer timer;
    double lastLoss = 0.0;
    std::vector<TokenSeq> tokens(static_cast<size_t>(opts_.batchSeqs));
    std::vector<std::vector<int>> targets(
        static_cast<size_t>(opts_.batchSeqs));
    std::vector<double> itemLoss(static_cast<size_t>(opts_.batchSeqs));
    std::vector<Status> itemStatus(static_cast<size_t>(opts_.batchSeqs));

    static Counter *stepCounter =
        MetricsRegistry::instance().counter("train.steps");
    const TelemetryPhase phase("train");
    for (int step = startStep; step < opts_.steps; ++step) {
        // Top-of-step is the trainer's cancellation point: the state
        // here equals the end of the previous step, so the final
        // checkpoint written on the way out resumes bitwise
        // identically to an uninterrupted run.
        pollCancelFault("train.step");
        const Status cancel = cancelStatus("train.step");
        if (!cancel.ok()) {
            status_ = cancel;
            if (!opts_.checkpointPath.empty())
                writeTrainCheckpoint(optimizer, step);
            break;
        }
        LRD_TRACE_SPAN("train.step");
        stepCounter->inc();
        // Snapshot the example streams: if a signal lands mid-batch
        // the partially computed step is discarded and the RNGs roll
        // back so the checkpoint matches top-of-step state.
        const RngState genState = gen_.rng().state();
        const RngState maskState = maskRng_.state();
        for (int b = 0; b < opts_.batchSeqs; ++b)
            makeExample(tokens[static_cast<size_t>(b)],
                        targets[static_cast<size_t>(b)]);

        pool.parallelFor(0, opts_.batchSeqs, 1,
                         [&](int64_t lo, int64_t hi) {
            for (int64_t b = lo; b < hi; ++b) {
                LRD_TRACE_SPAN("train.item");
                // Each item resolves on the worker that owns it: the
                // noted numeric fault (or a non-finite loss) marks the
                // item's fixed slot, and the fold below applies the
                // recovery policy.
                (void)takeNumericFault();
                Gradients &g = itemGrads[static_cast<size_t>(b)];
                g.zero();
                itemLoss[static_cast<size_t>(b)] = model_.lossAndGrad(
                    tokens[static_cast<size_t>(b)],
                    targets[static_cast<size_t>(b)], g);
                Status st = takeNumericFault();
                if (st.ok()
                    && !std::isfinite(itemLoss[static_cast<size_t>(b)]))
                    st = Status(StatusCode::NonFinite, "train.item",
                                strCat("non-finite loss at batch item ", b));
                itemStatus[static_cast<size_t>(b)] = std::move(st);
            }
        });

        if (cancelRequested()) {
            // Cancelled mid-batch: the pool dropped unclaimed chunks,
            // so item buffers are incomplete. Discard the step.
            gen_.rng().setState(genState);
            maskRng_.setState(maskState);
            status_ = cancelStatus("train.step");
            if (!opts_.checkpointPath.empty())
                writeTrainCheckpoint(optimizer, step);
            break;
        }

        // Fixed-order reduction: grads and loss fold in item order.
        // Failed items are skipped entirely, so the summation tree for
        // the surviving items is still identical at every thread count.
        grads.zero();
        double lossSum = 0.0;
        int numGood = 0;
        Status firstBad;
        for (int b = 0; b < opts_.batchSeqs; ++b) {
            if (!itemStatus[static_cast<size_t>(b)].ok()) {
                if (firstBad.ok())
                    firstBad = itemStatus[static_cast<size_t>(b)];
                continue;
            }
            ++numGood;
            const Gradients &g = itemGrads[static_cast<size_t>(b)];
            for (size_t k = 0; k < grads.size(); ++k)
                axpy(grads[k], 1.0F, g[k]);
            lossSum += itemLoss[static_cast<size_t>(b)];
        }
        if (!firstBad.ok()) {
            if (robustPolicy().mode == RobustMode::Strict)
                fatal("trainer: " + firstBad.toString());
            if (numGood <= 0)
                fatal(strCat("trainer: every batch item failed at step ",
                             step, "; first: ", firstBad.toString()));
            enforceFailureBudget("train.step",
                                 opts_.batchSeqs - numGood,
                                 opts_.batchSeqs, firstBad);
        }
        // Average the accumulated gradients over the surviving items.
        for (size_t k = 0; k < grads.size(); ++k)
            for (float &g : grads[k].storage())
                g /= static_cast<float>(numGood);
        lastLoss = lossSum / numGood;
        optimizer.step(grads,
                       cosineSchedule(step, opts_.warmupSteps, opts_.steps));
        const int next = step + 1;
        if (!opts_.checkpointPath.empty() && opts_.checkpointEvery > 0
            && (next % opts_.checkpointEvery == 0 || next == opts_.steps))
            writeTrainCheckpoint(optimizer, next);
        if (opts_.logEvery > 0
            && (step % opts_.logEvery == 0 || step == opts_.steps - 1)) {
            inform(strCat("train[", model_.config().name, "] step ", step,
                          "/", opts_.steps, " loss ", lastLoss, " (",
                          static_cast<int>(timer.elapsedSeconds()),
                          "s elapsed)"));
        }
    }
    return lastLoss;
}

double
Trainer::evalLoss(int numDocs, uint64_t seed)
{
    CorpusGenerator heldOut(world_, seed);
    double sum = 0.0;
    for (int d = 0; d < numDocs; ++d) {
        TokenSeq tokens = heldOut.document(opts_.seqLen);
        std::vector<int> targets(tokens.size(), -1);
        if (model_.config().arch == Arch::LlamaStyle) {
            for (size_t i = 0; i + 1 < tokens.size(); ++i)
                targets[i] = tokens[i + 1];
        } else {
            Rng mr(seed + static_cast<uint64_t>(d));
            for (size_t i = 1; i < tokens.size(); ++i) {
                if (mr.bernoulli(opts_.mlmProb)) {
                    targets[i] = tokens[i];
                    tokens[i] = world_.maskToken();
                }
            }
            if (targets[1] < 0) {
                targets[1] = tokens[1];
                tokens[1] = world_.maskToken();
            }
        }
        sum += model_.loss(tokens, targets);
    }
    return sum / numDocs;
}

} // namespace lrd
