#include "sim/stabilizer.hh"

#include <algorithm>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

constexpr int kWordBits = 64;

int
wordsFor(int num_qubits)
{
    return (num_qubits + kWordBits - 1) / kWordBits;
}

} // namespace

PackedPauli::PackedPauli(const PauliString &p)
    : xWords(wordsFor(static_cast<int>(p.xBits.size())), 0),
      zWords(wordsFor(static_cast<int>(p.xBits.size())), 0),
      negative(p.negative),
      numQubits(static_cast<int>(p.xBits.size()))
{
    for (int q = 0; q < numQubits; ++q) {
        const std::uint64_t mask = 1ull << (q & 63);
        if (p.xBits[q])
            xWords[q >> 6] |= mask;
        if (p.zBits[q])
            zWords[q >> 6] |= mask;
    }
}

StabilizerSim::StabilizerSim(int num_qubits, int max_variables)
    : n_(num_qubits),
      words_(wordsFor(num_qubits)),
      formWords_(wordsFor(max_variables + 1)),
      x_((2 * num_qubits + 1) * static_cast<std::size_t>(words_), 0),
      z_((2 * num_qubits + 1) * static_cast<std::size_t>(words_), 0),
      r_((2 * num_qubits + 1) * static_cast<std::size_t>(formWords_), 0)
{
    DCMBQC_ASSERT(num_qubits >= 1, "stabilizer sim needs >= 1 qubit");
    DCMBQC_ASSERT(max_variables >= 0, "negative variable bound");
    for (int q = 0; q < n_; ++q) {
        const std::uint64_t mask = 1ull << (q & 63);
        xRow(q)[q >> 6] |= mask;      // destabilizer X_q
        zRow(n_ + q)[q >> 6] |= mask; // stabilizer Z_q
    }
}

void
StabilizerSim::rowsum(int h, int i)
{
    // The AG06 phase exponent, evaluated for 64 qubit columns per
    // word. With (x1,z1) the multiplier bits (row i) and (x2,z2) the
    // target bits (row h), phaseG(x1,z1,x2,z2) is +1 exactly on
    // columns matching x1 z1 z2 ~x2 | x1 ~z1 x2 z2 | ~x1 z1 x2 ~z2,
    // -1 on the sign-mirrored triples, and 0 elsewhere, so the sum
    // over columns is popcount(plus) - popcount(minus).
    int phase = 0;
    std::uint64_t *xh = xRow(h);
    std::uint64_t *zh = zRow(h);
    const std::uint64_t *xi = xRow(i);
    const std::uint64_t *zi = zRow(i);
    for (int w = 0; w < words_; ++w) {
        const std::uint64_t x1 = xi[w];
        const std::uint64_t z1 = zi[w];
        const std::uint64_t x2 = xh[w];
        const std::uint64_t z2 = zh[w];
        const std::uint64_t plus = (x1 & z1 & z2 & ~x2) |
            (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2);
        const std::uint64_t minus = (x1 & z1 & x2 & ~z2) |
            (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2);
        phase += popcount64(plus) - popcount64(minus);
        xh[w] = x2 ^ x1;
        zh[w] = z2 ^ z1;
    }
    // Two's complement: phase & 3 is phase mod 4 in [0, 4).
    phase &= 3;
    // Stabilizer and scratch rows always produce a real +/- sign;
    // destabilizer rows may anticommute with the multiplier, and
    // their phase bit is a don't-care in the AG tableau.
    DCMBQC_ASSERT(h < n_ || phase == 0 || phase == 2,
                  "rowsum: odd phase on stabilizer row");
    std::uint64_t *rh = sign(h);
    const std::uint64_t *ri = sign(i);
    for (int w = 0, used = usedFormWords(); w < used; ++w)
        rh[w] ^= ri[w];
    rh[0] ^= static_cast<std::uint64_t>(phase >> 1);
}

void
StabilizerSim::applyH(int q)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    for (int row = 0; row < 2 * n_; ++row) {
        std::uint64_t &xw = xRow(row)[w];
        std::uint64_t &zw = zRow(row)[w];
        sign(row)[0] ^= (xw & zw & mask) != 0;
        const std::uint64_t diff = (xw ^ zw) & mask;
        xw ^= diff;
        zw ^= diff;
    }
}

void
StabilizerSim::applyS(int q)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    for (int row = 0; row < 2 * n_; ++row) {
        const std::uint64_t xw = xRow(row)[w];
        std::uint64_t &zw = zRow(row)[w];
        sign(row)[0] ^= (xw & zw & mask) != 0;
        zw ^= xw & mask;
    }
}

void
StabilizerSim::applySdg(int q)
{
    // Sdg = S Z: Z first flips sign when x set, then S.
    applyZ(q);
    applyS(q);
}

void
StabilizerSim::applyX(int q)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    for (int row = 0; row < 2 * n_; ++row)
        sign(row)[0] ^= (zRow(row)[w] & mask) != 0;
}

void
StabilizerSim::applyZ(int q)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    for (int row = 0; row < 2 * n_; ++row)
        sign(row)[0] ^= (xRow(row)[w] & mask) != 0;
}

void
StabilizerSim::xorFormWhere(const std::vector<std::uint64_t> &bits,
                            int q, const std::uint64_t *form)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    const int used = usedFormWords();
    for (int row = 0; row < 2 * n_; ++row) {
        if (!(bits[row * static_cast<std::size_t>(words_) + w] & mask))
            continue;
        std::uint64_t *r = sign(row);
        for (int k = 0; k < used; ++k)
            r[k] ^= form[k];
    }
}

void
StabilizerSim::applyX(int q, const std::uint64_t *form)
{
    xorFormWhere(z_, q, form);
}

void
StabilizerSim::applyZ(int q, const std::uint64_t *form)
{
    xorFormWhere(x_, q, form);
}

void
StabilizerSim::applyCNOT(int control, int target)
{
    const int wc = control >> 6;
    const int wt = target >> 6;
    const std::uint64_t mc = 1ull << (control & 63);
    const std::uint64_t mt = 1ull << (target & 63);
    for (int row = 0; row < 2 * n_; ++row) {
        std::uint64_t *xw = xRow(row);
        std::uint64_t *zw = zRow(row);
        const int xc = (xw[wc] & mc) != 0;
        const int zc = (zw[wc] & mc) != 0;
        const int xt = (xw[wt] & mt) != 0;
        const int zt = (zw[wt] & mt) != 0;
        sign(row)[0] ^= static_cast<std::uint64_t>(xc & zt & (xt ^ zc ^ 1));
        if (xc)
            xw[wt] ^= mt;
        if (zt)
            zw[wc] ^= mc;
    }
}

void
StabilizerSim::applyCZ(int a, int b)
{
    applyH(b);
    applyCNOT(a, b);
    applyH(b);
}

bool
StabilizerSim::zMeasurementIsRandom(int q) const
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    for (int row = n_; row < 2 * n_; ++row)
        if (xRow(row)[w] & mask)
            return true;
    return false;
}

int
StabilizerSim::measureZRows(int q)
{
    const int w = q >> 6;
    const std::uint64_t mask = 1ull << (q & 63);
    const int used = usedFormWords();

    int p = -1;
    for (int row = n_; row < 2 * n_; ++row) {
        if (xRow(row)[w] & mask) {
            p = row;
            break;
        }
    }

    if (p >= 0) {
        // Random outcome.
        for (int row = 0; row < 2 * n_; ++row)
            if (row != p && (xRow(row)[w] & mask))
                rowsum(row, p);
        // Destabilizer p-n becomes old stabilizer p.
        std::memcpy(xRow(p - n_), xRow(p),
                    sizeof(std::uint64_t) * words_);
        std::memcpy(zRow(p - n_), zRow(p),
                    sizeof(std::uint64_t) * words_);
        std::memcpy(sign(p - n_), sign(p), sizeof(std::uint64_t) * used);
        // New stabilizer is +Z_q until the caller signs it.
        std::fill_n(xRow(p), words_, std::uint64_t{0});
        std::fill_n(zRow(p), words_, std::uint64_t{0});
        std::fill_n(sign(p), used, std::uint64_t{0});
        zRow(p)[w] = mask;
        return p;
    }

    // Deterministic outcome: accumulate into the scratch row.
    const int scratch = 2 * n_;
    std::fill_n(xRow(scratch), words_, std::uint64_t{0});
    std::fill_n(zRow(scratch), words_, std::uint64_t{0});
    std::fill_n(sign(scratch), used, std::uint64_t{0});
    for (int i = 0; i < n_; ++i)
        if (xRow(i)[w] & mask)
            rowsum(scratch, i + n_);
    return -1;
}

StabMeasureResult
StabilizerSim::measureZWithOutcome(int q, int forced_outcome)
{
    const int p = measureZRows(q);
    if (p < 0)
        return {static_cast<int>(sign(2 * n_)[0] & 1), true};
    sign(p)[0] = static_cast<std::uint64_t>(forced_outcome);
    return {forced_outcome, false};
}

bool
StabilizerSim::measureZAffine(int q, std::uint64_t *form)
{
    const int p = measureZRows(q);
    std::fill_n(form, formWords_, std::uint64_t{0});
    if (p < 0) {
        std::memcpy(form, sign(2 * n_),
                    sizeof(std::uint64_t) * usedFormWords());
        return false;
    }
    DCMBQC_ASSERT(variables_ + 1 < formWords_ * kWordBits,
                  "measureZAffine: more random outcomes than the "
                  "tableau was sized for");
    const int j = ++variables_;
    form[j >> 6] = 1ull << (j & 63);
    sign(p)[j >> 6] = form[j >> 6];
    return true;
}

StabMeasureResult
StabilizerSim::measureZ(int q, Rng &rng)
{
    if (!zMeasurementIsRandom(q))
        return measureZWithOutcome(q, 0);
    const int outcome = rng.bernoulli(0.5) ? 1 : 0;
    return measureZWithOutcome(q, outcome);
}

StabMeasureResult
StabilizerSim::measureX(int q, Rng &rng)
{
    applyH(q);
    const auto result = measureZ(q, rng);
    applyH(q);
    return result;
}

int
StabilizerSim::anticommutes(int row, const PackedPauli &p) const
{
    // Per-column symplectic product bit: (x_row & z_p) ^ (z_row &
    // x_p). XOR-accumulating words preserves total bit parity since
    // popcount(a ^ b) == popcount(a) + popcount(b) (mod 2).
    DCMBQC_ASSERT(p.numQubits == n_, "Pauli size mismatch");
    const std::uint64_t *xr = xRow(row);
    const std::uint64_t *zr = zRow(row);
    std::uint64_t acc = 0;
    for (int w = 0; w < words_; ++w)
        acc ^= (xr[w] & p.zWords[w]) ^ (zr[w] & p.xWords[w]);
    return popcount64(acc) & 1;
}

int
StabilizerSim::anticommutes(int row, const PauliString &p) const
{
    return anticommutes(row, PackedPauli(p));
}

bool
StabilizerSim::isStabilizer(const PackedPauli &p) const
{
    // P must commute with every stabilizer generator.
    for (int row = n_; row < 2 * n_; ++row)
        if (anticommutes(row, p))
            return false;

    // Express P as a product of stabilizer generators: generator i
    // participates iff P anticommutes with destabilizer i. Build the
    // product in the scratch row and compare bits and sign.
    const int scratch = 2 * n_;
    auto *self = const_cast<StabilizerSim *>(this);
    std::fill_n(self->xRow(scratch), words_, std::uint64_t{0});
    std::fill_n(self->zRow(scratch), words_, std::uint64_t{0});
    std::fill_n(self->sign(scratch), usedFormWords(), std::uint64_t{0});
    for (int i = 0; i < n_; ++i)
        if (anticommutes(i, p))
            self->rowsum(scratch, i + n_);

    for (int w = 0; w < words_; ++w)
        if (xRow(scratch)[w] != p.xWords[w] ||
            zRow(scratch)[w] != p.zWords[w])
            return false;
    // A sign that depends on a random outcome is no fixed sign.
    const std::uint64_t *r = sign(scratch);
    for (int w = 1; w < usedFormWords(); ++w)
        if (r[w] != 0)
            return false;
    return r[0] == (p.negative ? 1u : 0u);
}

bool
StabilizerSim::isStabilizer(const PauliString &p) const
{
    return isStabilizer(PackedPauli(p));
}

void
StabilizerSim::prepareGraphState(const Graph &g)
{
    DCMBQC_ASSERT(g.numNodes() <= n_, "graph larger than register");
    for (NodeId u = 0; u < g.numNodes(); ++u)
        applyH(u);
    for (const auto &e : g.edges())
        applyCZ(e.u, e.v);
}

PauliString
StabilizerSim::graphStabilizer(const Graph &g, NodeId i)
{
    PauliString p(g.numNodes());
    p.withX(i);
    for (const auto &adj : g.adjacency(i))
        p.withZ(adj.neighbor);
    return p;
}

} // namespace dcmbqc
