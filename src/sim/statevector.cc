#include "sim/statevector.hh"

#include <algorithm>
#include <cmath>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/sv_kernels.hh"

namespace dcmbqc
{

namespace
{

constexpr double pi = 3.14159265358979323846;
const std::complex<double> iunit(0.0, 1.0);
constexpr double invSqrt2 = 0.70710678118654752440;

/**
 * Sample (or force) a measurement outcome from its two branches'
 * squared norms; the result carries the chosen branch's norm.
 */
MeasureResult
pickOutcome(double p0, double p1, Rng &rng, int forced_outcome)
{
    const int outcome = forced_outcome >= 0
        ? forced_outcome : (rng.uniform() < p0 ? 0 : 1);
    const double prob = outcome == 0 ? p0 : p1;
    DCMBQC_ASSERT(prob > 1e-12, "measured a zero-probability branch");
    return {outcome, prob};
}

} // namespace

StateVector::StateVector() : numQubits_(0), amps_(1, 1.0)
{
}

StateVector::StateVector(int num_qubits, bool plus_basis)
    : numQubits_(num_qubits),
      amps_(static_cast<std::size_t>(1) << num_qubits, 0.0)
{
    DCMBQC_ASSERT(num_qubits >= 0 && num_qubits <= 26,
                  "statevector limited to 26 qubits");
    if (plus_basis) {
        const double amp =
            1.0 / std::sqrt(static_cast<double>(amps_.size()));
        for (auto &a : amps_)
            a = amp;
    } else {
        amps_[0] = 1.0;
    }
}

int
StateVector::addQubitZero()
{
    amps_.resize(amps_.size() * 2, 0.0);
    return numQubits_++;
}

int
StateVector::addQubitPlus(std::size_t cz_mask)
{
    DCMBQC_ASSERT((cz_mask >> numQubits_) == 0,
                  "addQubitPlus: CZ mask names a missing qubit");
    const std::size_t half = amps_.size();
    amps_.resize(half * 2);
    // Multiplying by -1 negates exactly, so one sign per index equals
    // the CZs' negations applied one after another. The sign of index
    // i is that of its low bits, tabulated once, times that of the
    // block holding it.
    constexpr std::size_t kBlock = 32;
    const std::size_t block = std::min(half, kBlock);
    double low_sign[2 * kBlock];
    for (std::size_t t = 0; t < block; ++t)
        low_sign[2 * t] = low_sign[2 * t + 1] =
            parity64(t & cz_mask) ? -1.0 : 1.0;
    double *lower = reinterpret_cast<double *>(amps_.data());
    double *upper = lower + 2 * half;
    for (std::size_t start = 0; start < half; start += block) {
        const double block_sign = parity64(start & cz_mask) ? -1.0 : 1.0;
        double *lo = lower + 2 * start;
        double *hi = upper + 2 * start;
        for (std::size_t k = 0; k < 2 * block; ++k) {
            const double value = lo[k] * invSqrt2;
            lo[k] = value;
            hi[k] = value * (low_sign[k] * block_sign);
        }
    }
    return numQubits_++;
}

void
StateVector::apply1q(int q, Amplitude m00, Amplitude m01, Amplitude m10,
                     Amplitude m11)
{
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "apply1q: bad qubit ", q);
    const Amplitude m[4] = {m00, m01, m10, m11};
    sv::apply1q(amps_.data(), amps_.size(), q, m);
}

void
StateVector::applyH(int q)
{
    apply1q(q, invSqrt2, invSqrt2, invSqrt2, -invSqrt2);
}

void
StateVector::applyX(int q)
{
    apply1q(q, 0, 1, 1, 0);
}

void
StateVector::applyY(int q)
{
    apply1q(q, 0, -iunit, iunit, 0);
}

void
StateVector::applyZ(int q)
{
    apply1q(q, 1, 0, 0, -1);
}

void
StateVector::applyS(int q)
{
    apply1q(q, 1, 0, 0, iunit);
}

void
StateVector::applySdg(int q)
{
    apply1q(q, 1, 0, 0, -iunit);
}

void
StateVector::applyT(int q)
{
    apply1q(q, 1, 0, 0, std::exp(iunit * (pi / 4)));
}

void
StateVector::applyTdg(int q)
{
    apply1q(q, 1, 0, 0, std::exp(-iunit * (pi / 4)));
}

void
StateVector::applyRX(int q, double theta)
{
    const double c = std::cos(theta / 2);
    const double s = std::sin(theta / 2);
    apply1q(q, c, -iunit * s, -iunit * s, c);
}

void
StateVector::applyRY(int q, double theta)
{
    const double c = std::cos(theta / 2);
    const double s = std::sin(theta / 2);
    apply1q(q, c, -s, s, c);
}

void
StateVector::applyRZ(int q, double theta)
{
    apply1q(q, std::exp(-iunit * (theta / 2)), 0, 0,
            std::exp(iunit * (theta / 2)));
}

void
StateVector::applyCZ(int a, int b)
{
    DCMBQC_ASSERT(a != b && a >= 0 && b >= 0 && a < numQubits_ &&
                      b < numQubits_,
                  "applyCZ: bad qubits");
    // Visit only the quarter of indices with both bits set: blocks
    // with the high bit set, runs within them with the low bit set.
    const std::size_t lo = static_cast<std::size_t>(1) << std::min(a, b);
    const std::size_t hi = static_cast<std::size_t>(1) << std::max(a, b);
    for (std::size_t block = hi; block < amps_.size(); block += 2 * hi)
        for (std::size_t run = block + lo; run < block + hi; run += 2 * lo)
            for (std::size_t i = run; i < run + lo; ++i)
                amps_[i] = -amps_[i];
}

void
StateVector::applyCNOT(int control, int target)
{
    const std::size_t cbit = static_cast<std::size_t>(1) << control;
    const std::size_t tbit = static_cast<std::size_t>(1) << target;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & cbit) && !(i & tbit))
            std::swap(amps_[i], amps_[i | tbit]);
}

void
StateVector::applyCP(int a, int b, double theta)
{
    const std::size_t mask = (static_cast<std::size_t>(1) << a) |
                             (static_cast<std::size_t>(1) << b);
    const Amplitude phase = std::exp(iunit * theta);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & mask) == mask)
            amps_[i] *= phase;
}

void
StateVector::applyRZZ(int a, int b, double theta)
{
    const std::size_t abit = static_cast<std::size_t>(1) << a;
    const std::size_t bbit = static_cast<std::size_t>(1) << b;
    const Amplitude plus = std::exp(-iunit * (theta / 2));
    const Amplitude minus = std::exp(iunit * (theta / 2));
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const bool za = (i & abit) != 0;
        const bool zb = (i & bbit) != 0;
        amps_[i] *= (za == zb) ? plus : minus;
    }
}

void
StateVector::applySWAP(int a, int b)
{
    const std::size_t abit = static_cast<std::size_t>(1) << a;
    const std::size_t bbit = static_cast<std::size_t>(1) << b;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & abit) && !(i & bbit))
            std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
}

void
StateVector::applyCCX(int c0, int c1, int target)
{
    const std::size_t mask = (static_cast<std::size_t>(1) << c0) |
                             (static_cast<std::size_t>(1) << c1);
    const std::size_t tbit = static_cast<std::size_t>(1) << target;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & mask) == mask && !(i & tbit))
            std::swap(amps_[i], amps_[i | tbit]);
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.kind) {
      case GateKind::H: applyH(gate.q0); break;
      case GateKind::X: applyX(gate.q0); break;
      case GateKind::Y: applyY(gate.q0); break;
      case GateKind::Z: applyZ(gate.q0); break;
      case GateKind::S: applyS(gate.q0); break;
      case GateKind::Sdg: applySdg(gate.q0); break;
      case GateKind::T: applyT(gate.q0); break;
      case GateKind::Tdg: applyTdg(gate.q0); break;
      case GateKind::RX: applyRX(gate.q0, gate.angle); break;
      case GateKind::RY: applyRY(gate.q0, gate.angle); break;
      case GateKind::RZ: applyRZ(gate.q0, gate.angle); break;
      case GateKind::CZ: applyCZ(gate.q0, gate.q1); break;
      case GateKind::CNOT: applyCNOT(gate.q0, gate.q1); break;
      case GateKind::CP: applyCP(gate.q0, gate.q1, gate.angle); break;
      case GateKind::RZZ: applyRZZ(gate.q0, gate.q1, gate.angle); break;
      case GateKind::SWAP: applySWAP(gate.q0, gate.q1); break;
      case GateKind::CCX: applyCCX(gate.q0, gate.q1, gate.q2); break;
    }
}

void
StateVector::applyCircuit(const Circuit &circuit)
{
    DCMBQC_ASSERT(circuit.numQubits() <= numQubits_,
                  "circuit wider than register");
    for (const auto &gate : circuit.gates())
        applyGate(gate);
}

MeasureResult
StateVector::measureAndRemove(int q, Amplitude b0, Amplitude b1, Rng &rng,
                              int forced_outcome)
{
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "measure: bad qubit ", q);
    const std::size_t half = amps_.size() / 2;

    // Outcome 0 projects onto basis vector (b0, b1) and outcome 1
    // onto its orthogonal complement (b0, -b1) -- valid because our
    // XY bases always have |b0| = |b1|. One sweep computes both.
    const Amplitude k[3] = {std::conj(b0), std::conj(b1),
                            std::conj(-b1)};
    scratch_.resize(2 * half);
    const sv::BranchNorms norms =
        sv::measureSweep(amps_.data(), amps_.size(), q, k,
                         scratch_.data(), scratch_.data() + half);
    const MeasureResult result =
        pickOutcome(norms.p0, norms.p1, rng, forced_outcome);

    const double scale = 1.0 / std::sqrt(result.probability);
    const Amplitude *branch = scratch_.data() + result.outcome * half;
    for (std::size_t r = 0; r < half; ++r)
        amps_[r] = branch[r] * scale;
    amps_.resize(half);
    --numQubits_;
    return result;
}

MeasureResult
StateVector::measureXYAndRemove(int q, double theta, Rng &rng,
                                int forced_outcome)
{
    const Amplitude b0 = invSqrt2;
    const Amplitude b1 = std::exp(iunit * theta) * invSqrt2;
    return measureAndRemove(q, b0, b1, rng, forced_outcome);
}

MeasureResult
StateVector::measureZAndRemove(int q, Rng &rng, int forced_outcome)
{
    // Z basis: |0> = (1, 0), orthogonal (0, 1). measureAndRemove's
    // complement convention (b0, -b1) does not produce (0, 1) from
    // (1, 0), and the branches are plain halves of the state, so Z
    // sums both halves' norms in one sweep and compacts the chosen
    // one in place.
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "measureZ: bad qubit ", q);
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    const std::size_t half = amps_.size() / 2;
    // Index pair r: r with a 0 inserted at bit q, and that plus stride.
    const auto low_index = [&](std::size_t r) {
        return ((r >> q) << (q + 1)) | (r & (stride - 1));
    };

    double p0 = 0.0;
    double p1 = 0.0;
    for (std::size_t r = 0; r < half; ++r) {
        const std::size_t i0 = low_index(r);
        p0 += std::norm(amps_[i0]);
        p1 += std::norm(amps_[i0 | stride]);
    }
    const MeasureResult result = pickOutcome(p0, p1, rng, forced_outcome);

    // Forward in place: pair r reads index >= r, and no later pair
    // reads below its own r.
    const double scale = 1.0 / std::sqrt(result.probability);
    const std::size_t bit = result.outcome ? stride : 0;
    for (std::size_t r = 0; r < half; ++r)
        amps_[r] = amps_[low_index(r) | bit] * scale;
    amps_.resize(half);
    --numQubits_;
    return result;
}

double
StateVector::norm() const
{
    double total = 0.0;
    for (const auto &a : amps_)
        total += std::norm(a);
    return total;
}

double
StateVector::fidelity(const StateVector &a, const StateVector &b)
{
    DCMBQC_ASSERT(a.numQubits_ == b.numQubits_,
                  "fidelity: qubit count mismatch");
    Amplitude inner = 0.0;
    for (std::size_t i = 0; i < a.amps_.size(); ++i)
        inner += std::conj(a.amps_[i]) * b.amps_[i];
    return std::norm(inner);
}

StateVector
StateVector::permuted(const std::vector<int> &new_order) const
{
    DCMBQC_ASSERT(static_cast<int>(new_order.size()) == numQubits_,
                  "permuted: order size mismatch");
    StateVector result(numQubits_);
    result.amps_.assign(amps_.size(), 0.0);
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        std::size_t j = 0;
        for (int bit = 0; bit < numQubits_; ++bit)
            if (i & (static_cast<std::size_t>(1) << new_order[bit]))
                j |= static_cast<std::size_t>(1) << bit;
        result.amps_[j] = amps_[i];
    }
    return result;
}

} // namespace dcmbqc
