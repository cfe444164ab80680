/**
 * @file
 * Table VI reproduction: effectiveness of BDIR. Runs the full
 * DC-MBQC framework on QFT programs, swapping only the final layer
 * scheduling component: plain priority-based list scheduling vs
 * BDIR (Algorithm 3). Reports the required-photon-lifetime
 * reduction.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/table.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

int
main()
{
    TextTable table({"Program", "List Lifetime", "BDIR Lifetime",
                     "Improv. (%)"});

    for (int qubits : {16, 25, 36, 49, 64}) {
        const auto p = prepare(Family::Qft, qubits);

        const auto config = CompileOptions::fromConfig(
            paperConfig(4, p.gridSize)).build().value();
        // Identical partition + local schedules for both schedulers.
        const auto adaptive =
            adaptivePartition(p.pattern.graph(), config.partition);
        const auto lsp = buildLayerSchedulingProblem(
            p.pattern.graph(), p.deps, adaptive.best, config.numQpus,
            config.grid, config.order, config.kmax).value();

        const auto list = listScheduleDefault(lsp);
        const int list_lifetime =
            evaluateSchedule(lsp, list).tauPhoton();

        const auto refined = bdirOptimize(lsp, list, config.bdir);
        const int bdir_lifetime =
            evaluateSchedule(lsp, refined).tauPhoton();

        const double improv = list_lifetime > 0
            ? 100.0 * (list_lifetime - bdir_lifetime) / list_lifetime
            : 0.0;
        table.row()
            .cell("QFT-" + std::to_string(qubits))
            .cell(list_lifetime)
            .cell(bdir_lifetime)
            .cell(improv, 2);
    }
    std::printf(
        "%s",
        table.render("Table VI: BDIR vs list scheduling").c_str());
    return 0;
}
