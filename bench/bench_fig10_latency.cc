/**
 * @file
 * Reproduces Figure 10: inference speedup vs model-size reduction.
 *
 * Two complementary measurements:
 *  (a) the analytical A100 roofline model on the real Llama2-7B shape
 *      across the paper's Table 4 ladder (paper: ~0.5% latency saved
 *      per 1% parameters removed, i.e. speedup 1.05x at ~9%);
 *  (b) REAL wall-clock CPU latency of this repository's inference
 *      engine on the tiny stand-in, dense vs decomposed.
 */

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "dse/schedules.h"
#include "util/timer.h"

using namespace lrd;

namespace {

/** Passes per latency point. One pass takes 20-45 ms, so on a shared
 *  host a single pass swung the speedups by 2x between runs. */
constexpr int kLatencyPasses = 7;

/** Median wall-clock seconds of kLatencyPasses passes over a fixed
 *  evaluation workload. */
double
measureCpuLatency(TransformerModel &model)
{
    const auto tasks = makeMcTasks(BenchmarkKind::Mmlu, defaultWorld(),
                                   60, 4242);
    Evaluator ev(model, defaultWorld(), EvalOptions{1, 1, false});
    std::vector<double> seconds;
    for (int pass = 0; pass < kLatencyPasses; ++pass) {
        Timer timer;
        for (const McTask &task : tasks)
            (void)ev.pickChoiceCausal(task);
        seconds.push_back(timer.elapsedSeconds());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[kLatencyPasses / 2];
}

} // namespace

int
main()
{
    // (a) Analytical A100 model, Llama2-7B, Table 4 ladder.
    const ModelConfig cfg = llama2_7bConfig();
    const DeviceSpec dev = a100_80gb();
    const GenerationWorkload wl = bench::paperWorkload();

    const InferenceEstimate base =
        estimateGeneration(cfg, DecompConfig::identity(), dev, wl);

    TablePrinter t("Figure 10a: analytical A100 latency, Llama2-7B "
                   "(paper: ~0.5% latency per 1% params)");
    t.setHeader({"Reduction", "Latency (s)", "Speedup",
                 "Latency saved per 1% params"});
    t.addRow({"0.0%", TablePrinter::num(base.latencySec, 3), "1.000x",
              "-"});
    for (const Table4Row &row : paperTable4()) {
        const DecompConfig gamma =
            DecompConfig::allTensors(cfg, table4Layers0Based(row), 1);
        const InferenceEstimate est =
            estimateGeneration(cfg, gamma, dev, wl);
        const double reduction = gamma.parameterReduction(cfg);
        const double saved = 1.0 - est.latencySec / base.latencySec;
        t.addRow({bench::pct(reduction),
                  TablePrinter::num(est.latencySec, 3),
                  TablePrinter::num(base.latencySec / est.latencySec, 3)
                      + "x",
                  bench::pct(saved / (reduction * 100.0), 2)});
    }
    bench::emit(t, "fig10_latency_analytical.csv");

    // The paper's actual testbed: 4x A100 data-parallel.
    TablePrinter g("Figure 10 (testbed view): 4x A100 data-parallel "
                   "aggregate throughput");
    g.setHeader({"Reduction", "Aggregate tok/s", "Throughput gain"});
    const MultiGpuEstimate base4 = estimateGenerationMultiGpu(
        cfg, DecompConfig::identity(), dev, wl, 4);
    g.addRow({"0.0%",
              TablePrinter::num(base4.aggregateTokensPerSec, 0),
              "1.000x"});
    for (const Table4Row &row : paperTable4()) {
        const DecompConfig gamma =
            DecompConfig::allTensors(cfg, table4Layers0Based(row), 1);
        const MultiGpuEstimate est =
            estimateGenerationMultiGpu(cfg, gamma, dev, wl, 4);
        g.addRow({bench::pct(gamma.parameterReduction(cfg)),
                  TablePrinter::num(est.aggregateTokensPerSec, 0),
                  TablePrinter::num(est.aggregateTokensPerSec
                                        / base4.aggregateTokensPerSec,
                                    3)
                      + "x"});
    }
    bench::emit(g, "fig10_latency_multigpu.csv");

    // (b) Real CPU wall-clock on the tiny stand-in.
    const ModelConfig tiny = tinyLlamaConfig();
    TransformerModel dense =
        TransformerModel::deserialize(bench::tinyLlamaBytes());
    (void)measureCpuLatency(dense); // warm-up
    const double denseSec = measureCpuLatency(dense);

    TablePrinter m("Figure 10b: measured CPU latency of this engine "
                   "(tiny stand-in, 60-item MMLU scoring workload, "
                   "median of 7 passes)");
    m.setHeader({"Reduction", "Wall clock (ms)", "Speedup"});
    m.addRow({"0.0%", TablePrinter::num(denseSec * 1e3, 2), "1.000x"});
    for (int count : {2, 4, 6, 8}) {
        TransformerModel model =
            TransformerModel::deserialize(bench::tinyLlamaBytes());
        const DecompConfig gamma = DecompConfig::allTensors(
            tiny, spreadSchedule(static_cast<int>(tiny.nLayers), count),
            1);
        bench::applyOrDie(gamma, model);
        (void)measureCpuLatency(model); // warm-up
        const double sec = measureCpuLatency(model);
        m.addRow({bench::pct(gamma.parameterReduction(tiny)),
                  TablePrinter::num(sec * 1e3, 2),
                  TablePrinter::num(denseSec / sec, 3) + "x"});
    }
    bench::emit(m, "fig10_latency_measured.csv");
    return 0;
}
