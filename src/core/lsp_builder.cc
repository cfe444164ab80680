#include "core/lsp_builder.hh"

#include <algorithm>
#include <string>

#include "common/thread_pool.hh"
#include "compiler/single_qpu.hh"

namespace dcmbqc
{

Expected<LayerSchedulingProblem>
buildLayerSchedulingProblem(const Graph &g, const Digraph &deps,
                            const Partitioning &part, int num_qpus,
                            const GridSpec &grid, PlacementOrder order,
                            int kmax,
                            std::vector<LocalSchedule> *local_out,
                            int num_workers)
{
    const auto members = part.partMembers();

    // --- Per-QPU local compilation ----------------------------------
    // Each part's induced subproblem is independent and the local
    // compiler is stateless, so the compiles run on a pool into
    // pre-sized slots; the assembly below walks the slots in QPU
    // order, making the output (and the reported failure) independent
    // of the worker count.
    SingleQpuConfig local_config;
    local_config.grid = grid;
    local_config.order = order;
    const SingleQpuCompiler local_compiler(local_config);

    std::vector<Expected<LocalSchedule>> compiled(
        num_qpus, Status::internal("QPU not compiled"));

    auto compile_one = [&](QpuId qpu) {
        std::vector<NodeId> to_sub;
        const Graph sub = g.inducedSubgraph(members[qpu], &to_sub);

        // Induced dependency graph (arcs within the part only).
        std::vector<Arc> sub_arcs;
        for (NodeId u : members[qpu])
            for (NodeId v : deps.successors(u))
                if (to_sub[v] != invalidNode)
                    sub_arcs.push_back({to_sub[u], to_sub[v]});

        compiled[qpu] = local_compiler.compile(
            sub, Digraph(sub.numNodes(), sub_arcs));
    };

    if (num_workers <= 0)
        num_workers = ThreadPool::defaultNumThreads();
    num_workers = std::min(num_workers, num_qpus);
    if (num_workers > 1) {
        ThreadPool pool(num_workers);
        for (QpuId qpu = 0; qpu < num_qpus; ++qpu)
            pool.submit([&, qpu] { compile_one(qpu); });
        pool.wait();
    } else {
        for (QpuId qpu = 0; qpu < num_qpus; ++qpu)
            compile_one(qpu);
    }

    std::vector<LocalSchedule> locals;
    locals.reserve(num_qpus);
    for (QpuId qpu = 0; qpu < num_qpus; ++qpu) {
        if (!compiled[qpu].ok())
            return Status::invalidArgument(
                "QPU " + std::to_string(qpu) + ": " +
                compiled[qpu].status().message());
        locals.push_back(std::move(compiled[qpu]).value());
    }

    // --- Sequential assembly (QPU order fixes the task ids) ---------
    std::vector<MainTask> main_tasks;
    for (QpuId qpu = 0; qpu < num_qpus; ++qpu) {
        const LocalSchedule &local = locals[qpu];
        for (std::size_t layer = 0; layer < local.layers.size();
             ++layer) {
            MainTask task;
            task.qpu = qpu;
            task.index = static_cast<int>(layer);
            task.nodes.reserve(local.layers[layer].nodes.size());
            for (NodeId sub_node : local.layers[layer].nodes)
                task.nodes.push_back(members[qpu][sub_node]);
            main_tasks.push_back(std::move(task));
        }
    }
    if (local_out)
        *local_out = std::move(locals);

    // The cut edges, whose endpoints' tasks now run on two QPUs,
    // become the synchronization tasks.
    return LayerSchedulingProblem(std::move(main_tasks), &g, &deps,
                                  num_qpus, kmax, grid.plRatio);
}

} // namespace dcmbqc
