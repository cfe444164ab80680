#include "exec/stabilizer_replay.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/bits.hh"
#include "exec/backend.hh"
#include "mbqc/dependency.hh"
#include "sim/kernel_config.hh"
#include "sim/stabilizer.hh"
#include "sim/stabilizer_reference.hh"

namespace dcmbqc
{

Expected<std::vector<int>>
cliffordBaseTurns(const Pattern &pattern, const std::string &backend)
{
    std::vector<int> turns(pattern.numNodes(), 0);
    for (NodeId u = 0; u < pattern.numNodes(); ++u) {
        if (pattern.isOutput(u))
            continue;
        const int k = cliffordQuarterTurns(pattern.angle(u));
        if (k < 0)
            return Status::failedPrecondition(
                backend + " backend requires a Clifford pattern: "
                "node " + std::to_string(u) + " measures at angle " +
                std::to_string(pattern.angle(u)) +
                ", not a multiple of pi/2");
        turns[u] = k;
    }
    return turns;
}

ReplayPlan
planReplay(const Pattern &pattern, const std::vector<NodeId> &order,
           bool live_window)
{
    const NodeId n = pattern.numNodes();
    const Graph &graph = pattern.graph();
    ReplayPlan plan;
    plan.qubit.assign(n, -1);
    std::vector<int> free_qubits;
    int allocated = 0;
    const auto create = [&](NodeId v) {
        if (plan.qubit[v] >= 0)
            return;
        int q = allocated;
        if (free_qubits.empty()) {
            ++allocated;
        } else {
            q = free_qubits.back();
            free_qubits.pop_back();
        }
        plan.qubit[v] = q;
        plan.prep.emplace_back(q, -1);
        // No neighbour is measured yet: measuring it would have
        // created v.
        for (const auto &adj : graph.adjacency(v))
            if (plan.qubit[adj.neighbor] >= 0)
                plan.prep.emplace_back(q, plan.qubit[adj.neighbor]);
    };
    const auto create_rest = [&] {
        for (NodeId v = 0; v < n; ++v)
            create(v);
    };

    if (!live_window)
        create_rest();
    plan.prepEnd.reserve(order.size() + 1);
    for (const NodeId m : order) {
        create(m);
        for (const auto &adj : graph.adjacency(m))
            create(adj.neighbor);
        plan.prepEnd.push_back(plan.prep.size());
        free_qubits.push_back(plan.qubit[m]);
    }
    create_rest();
    plan.prepEnd.push_back(plan.prep.size());
    plan.width = std::max(allocated, 1);
    return plan;
}

ScalarReplayStepper::ScalarReplayStepper(
    const Pattern &pattern, const std::vector<NodeId> &order,
    const std::vector<int> &base_turns, bool apply_byproducts,
    bool live_window)
    : pattern_(&pattern), order_(&order), turns_(&base_turns),
      applyByproducts_(apply_byproducts),
      plan_(planReplay(pattern, order, live_window))
{
}

int
ScalarReplayStepper::run(Rng &rng, std::string &bits) const
{
    const Pattern &pattern = *pattern_;
    const std::vector<NodeId> &order = *order_;
    const std::vector<int> &qubit = plan_.qubit;
    ScalarStabilizerSim sim(plan_.width);
    std::vector<int> sx(pattern.numNodes(), 0);
    std::vector<int> sz(pattern.numNodes(), 0);
    std::size_t gate = 0;
    const auto prepare = [&](std::size_t end) {
        for (; gate < end; ++gate) {
            const auto [a, b] = plan_.prep[gate];
            if (b < 0)
                sim.applyH(a);
            else
                sim.applyCZ(a, b);
        }
    };

    for (std::size_t i = 0; i < order.size(); ++i) {
        prepare(plan_.prepEnd[i]);
        const NodeId m = order[i];
        const int q = qubit[m];
        // Adapted angle (-1)^{sx} theta + sz*pi, exactly in integer
        // quarter turns; conjugate by P(-k*pi/2) and H so the
        // measurement is plain Z-basis.
        const int k = (((sx[m] ? -(*turns_)[m] : (*turns_)[m]) +
                        (sz[m] ? 2 : 0)) % 4 + 4) % 4;
        switch (k) {
          case 1: sim.applySdg(q); break;
          case 2: sim.applyZ(q); break;
          case 3: sim.applyS(q); break;
          default: break;
        }
        sim.applyH(q);
        if (sim.measureZ(q, rng).outcome) {
            // Back to |0> for the photon that reuses the qubit.
            sim.applyX(q);
            // Flow corrections: X on f(m), Z on N(f(m)) \ {m}.
            const NodeId succ = pattern.flow(m);
            sx[succ] ^= 1;
            for (const auto &adj : pattern.graph().adjacency(succ))
                if (adj.neighbor != m)
                    sz[adj.neighbor] ^= 1;
        }
    }
    prepare(plan_.prep.size());

    const auto &outputs = pattern.outputs();
    bits.assign(outputs.size(), '0');
    int random_outputs = 0;
    for (std::size_t wire = 0; wire < outputs.size(); ++wire) {
        const NodeId o = outputs[wire];
        const int q = qubit[o];
        if (applyByproducts_) {
            if (sz[o])
                sim.applyZ(q);
            if (sx[o])
                sim.applyX(q);
        }
        const StabMeasureResult mr = sim.measureZ(q, rng);
        if (mr.outcome)
            bits[wire] = '1';
        if (!mr.deterministic)
            ++random_outputs;
    }
    return random_outputs;
}

SymbolicReplay::SymbolicReplay(const Pattern &pattern,
                               const std::vector<NodeId> &order,
                               const std::vector<int> &base_turns,
                               bool apply_byproducts, bool live_window)
{
    const ReplayPlan plan = planReplay(pattern, order, live_window);
    const auto &outputs = pattern.outputs();
    StabilizerSim sim(plan.width,
                      static_cast<int>(order.size() + outputs.size()));
    const int fw = sim.formWords();
    std::size_t gate = 0;
    const auto prepare = [&](std::size_t end) {
        for (; gate < end; ++gate) {
            const auto [a, b] = plan.prep[gate];
            if (b < 0)
                sim.applyH(a);
            else
                sim.applyCZ(a, b);
        }
    };

    // The sx and sz forms of each pending node that a correction has
    // reached, 2 * fw words a slot; a measured node's slot is reused,
    // so memory follows the pending nodes, not the pattern.
    std::vector<int> slot(pattern.numNodes(), -1);
    std::vector<int> free_slots;
    std::vector<std::uint64_t> slots;
    const std::size_t slot_words = 2 * static_cast<std::size_t>(fw);
    // v's sx form, its sz form fw words further; zero when new.
    const auto forms_for = [&](NodeId v) {
        if (slot[v] < 0) {
            if (free_slots.empty()) {
                slot[v] = static_cast<int>(slots.size() / slot_words);
                slots.resize(slots.size() + slot_words, 0);
            } else {
                slot[v] = free_slots.back();
                free_slots.pop_back();
                std::fill_n(&slots[slot[v] * slot_words], slot_words,
                            std::uint64_t{0});
            }
        }
        return &slots[slot[v] * slot_words];
    };
    // Only the words the variables so far occupy can be nonzero.
    const auto xor_into = [&](std::uint64_t *to,
                              const std::uint64_t *from) {
        for (int w = 0, used = sim.numVariables() / 64 + 1; w < used;
             ++w)
            to[w] ^= from[w];
    };
    std::vector<std::uint64_t> c(fw);
    std::vector<std::uint64_t> o(fw);

    for (std::size_t i = 0; i < order.size(); ++i) {
        prepare(plan.prepEnd[i]);
        const NodeId m = order[i];
        const int q = plan.qubit[m];
        const int t = base_turns[m];
        std::fill(c.begin(), c.end(), std::uint64_t{0});
        if (slot[m] >= 0) {
            const std::uint64_t *sx = forms_for(m);
            xor_into(c.data(), sx + fw);
            if (t % 2 == 1)
                xor_into(c.data(), sx);
            free_slots.push_back(slot[m]);
            slot[m] = -1;
        }
        if (t % 2 == 1)
            sim.applyS(q);
        if (t == 1 || t == 2)
            c[0] ^= 1;
        sim.applyZ(q, c.data());
        sim.applyH(q);
        sim.measureZAffine(q, o.data());
        // Back to |0> on outcome 1, and the flow corrections: X on
        // f(m), Z on N(f(m)) \ {m}.
        sim.applyX(q, o.data());
        const NodeId succ = pattern.flow(m);
        xor_into(forms_for(succ), o.data());
        for (const auto &adj : pattern.graph().adjacency(succ))
            if (adj.neighbor != m)
                xor_into(forms_for(adj.neighbor) + fw, o.data());
    }
    prepare(plan.prep.size());

    std::vector<std::uint64_t> forms(outputs.size() * fw);
    for (std::size_t wire = 0; wire < outputs.size(); ++wire) {
        const NodeId out = outputs[wire];
        const int q = plan.qubit[out];
        if (apply_byproducts && slot[out] >= 0) {
            const std::uint64_t *sx = forms_for(out);
            sim.applyZ(q, sx + fw);
            sim.applyX(q, sx);
        }
        if (sim.measureZAffine(q, &forms[wire * fw]))
            ++randomOutputs_;
    }

    random_ = sim.numVariables();
    words_ = random_ / 64 + 1;
    outputForms_.resize(outputs.size() * words_);
    for (std::size_t wire = 0; wire < outputs.size(); ++wire)
        std::copy_n(&forms[wire * fw], words_,
                    &outputForms_[wire * words_]);
}

int
SymbolicReplay::sample(Rng &rng, std::vector<std::uint64_t> &draws,
                       std::string &bits) const
{
    // Bit 0 is the forms' constant, bit j the j-th random outcome:
    // bernoulli(0.5) is (next() >> 11) * 2^-53 < 0.5, i.e. bit 63
    // clear.
    draws.assign(words_, 0);
    draws[0] = 1;
    for (int j = 1; j <= random_; ++j)
        draws[j >> 6] |= (~rng.next() >> 63) << (j & 63);
    const std::size_t wires = outputForms_.size() / words_;
    bits.assign(wires, '0');
    for (std::size_t wire = 0; wire < wires; ++wire) {
        const std::uint64_t *form = &outputForms_[wire * words_];
        std::uint64_t acc = 0;
        for (int w = 0; w < words_; ++w)
            acc ^= form[w] & draws[w];
        if (parity64(acc))
            bits[wire] = '1';
    }
    return randomOutputs_;
}

Status
sampleStabShots(const Pattern &pattern, const std::vector<NodeId> &order,
                const std::vector<int> &base_turns,
                bool apply_byproducts, int shots, int threads,
                std::int64_t seed, const NoiseChannel *noise,
                ExecResult &result)
{
    const SimKernelConfig &config = simKernelConfig();
    std::optional<SymbolicReplay> symbolic;
    std::optional<ScalarReplayStepper> scalar;
    if (config.packedTableau)
        symbolic.emplace(pattern, order, base_turns, apply_byproducts,
                         config.liveWindow);
    else
        scalar.emplace(pattern, order, base_turns, apply_byproducts,
                       config.liveWindow);
    return tallyShots(
        shots, threads, seed, noise,
        [&](Rng &rng, std::string &bits) {
            // One draw buffer per worker thread; assign() recycles
            // its capacity.
            thread_local std::vector<std::uint64_t> draws;
            const int random_outputs = symbolic
                ? symbolic->sample(rng, draws, bits)
                : scalar->run(rng, bits);
            // Chain rule over the sequential output measurements:
            // each deterministic one contributes 1, each random one
            // 1/2.
            return apply_byproducts ? std::ldexp(1.0, -random_outputs)
                                    : -1.0;
        },
        result);
}

} // namespace dcmbqc
