#include "fhe/evaluator.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/pool.hh"
#include "math/simd/simd.hh"

namespace hydra {

namespace {

/** Scales must agree to relative 1e-6 before additive combination. */
void
checkScalesMatch(double a, double b)
{
    HYDRA_ASSERT(std::abs(a - b) <= 1e-6 * std::max(a, b),
                 "ciphertext scales do not match");
}

/** Copy of p restricted to its first `levels` limbs (domain preserved). */
RnsPoly
restrictTo(const RnsPoly& p, size_t levels)
{
    HYDRA_ASSERT(levels <= p.nLimbs() && p.specialCount() == 0,
                 "cannot restrict");
    RnsPoly out(p.basis(), levels, 0, p.nttForm());
    for (size_t k = 0; k < levels; ++k)
        out.copyLimbFrom(k, p, k);
    return out;
}

/**
 * A plaintext serves a ciphertext through its leading limbs: each RNS
 * limb's NTT is independent, so limbs [0, a.level()) of a plaintext
 * encoded with more limbs are the plaintext at the ciphertext's level.
 * A ciphertext over Q*P takes a plaintext over Q*P, whose special limbs
 * follow its chain limbs.
 */
void
checkPlainCovers(const Plaintext& p, const Ciphertext& a)
{
    HYDRA_ASSERT(p.poly.basis() == a.c0.basis() && p.poly.nttForm() &&
                     p.poly.specialCount() == a.c0.specialCount(),
                 "plaintexts are NTT-form polynomials over the "
                 "ciphertext's basis");
    HYDRA_ASSERT(p.poly.nLimbs() >= a.level(), "plaintext level too low");
    HYDRA_ASSERT(a.c0.sameShape(a.c1) && a.c0.nttForm(),
                 "ciphertexts are kept in NTT form");
}

/** The limb of p that serves limb k of ciphertext a. */
const u64*
plainLimb(const Plaintext& p, const Ciphertext& a, size_t k)
{
    return p.poly.limbData(k < a.level() ? k
                                         : p.poly.nLimbs() + k - a.level());
}

} // namespace

Evaluator::Evaluator(const CkksContext& ctx, const CkksEncoder& encoder)
    : ctx_(ctx), encoder_(encoder)
{
    const RnsBasis& basis = *ctx_.basis();
    pMod_.assign(basis.totalCount(), 1);
    for (size_t t = 0; t < basis.totalCount(); ++t) {
        const Modulus& m = basis.mod(t);
        for (size_t i = 0; i < basis.specialCount(); ++i)
            pMod_[t] = m.mulMod(
                pMod_[t], m.reduceU64(basis.mod(basis.specialIndex(i))
                                          .value()));
    }
}

void
Evaluator::addInPlace(Ciphertext& a, const Ciphertext& b) const
{
    HYDRA_ASSERT(a.level() == b.level(), "level mismatch in add");
    checkScalesMatch(a.scale, b.scale);
    a.c0.add(b.c0);
    a.c1.add(b.c1);
    count(HeOpType::HAdd, a.level());
}

Ciphertext
Evaluator::add(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = a;
    addInPlace(out, b);
    return out;
}

void
Evaluator::subInPlace(Ciphertext& a, const Ciphertext& b) const
{
    HYDRA_ASSERT(a.level() == b.level(), "level mismatch in sub");
    checkScalesMatch(a.scale, b.scale);
    a.c0.sub(b.c0);
    a.c1.sub(b.c1);
    count(HeOpType::HAdd, a.level());
}

Ciphertext
Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = a;
    subInPlace(out, b);
    return out;
}

Ciphertext
Evaluator::negate(const Ciphertext& a) const
{
    Ciphertext out = a;
    out.c0.negate();
    out.c1.negate();
    return out;
}

Ciphertext
Evaluator::addPlain(const Ciphertext& a, const Plaintext& p) const
{
    checkScalesMatch(a.scale, p.scale);
    checkPlainCovers(p, a);
    HYDRA_ASSERT(a.c0.specialCount() == 0, "addPlain works over the chain");
    Ciphertext out = a;
    parallelFor(0, out.level(), [&](size_t k) {
        simd::kernels().addSpan(out.c0.limbData(k), p.poly.limbData(k),
                                out.c0.n(), out.c0.mod(k).value());
    });
    count(HeOpType::HAdd, out.level());
    return out;
}

void
Evaluator::mulPlainInPlace(Ciphertext& a, const Plaintext& p) const
{
    checkPlainCovers(p, a);
    parallelFor(0, a.c0.limbCount(), [&](size_t k) {
        const u64* pk = plainLimb(p, a, k);
        simd::kernels().mulSpan(a.c0.limbData(k), pk, a.c0.n(),
                                a.c0.mod(k));
        simd::kernels().mulSpan(a.c1.limbData(k), pk, a.c1.n(),
                                a.c1.mod(k));
    });
    a.scale *= p.scale;
    count(HeOpType::PMult, a.level());
}

Ciphertext
Evaluator::mulPlain(const Ciphertext& a, const Plaintext& p) const
{
    Ciphertext out = a;
    mulPlainInPlace(out, p);
    return out;
}

void
Evaluator::addMulPlain(Ciphertext& acc, const Ciphertext& a,
                       const Plaintext& p) const
{
    HYDRA_ASSERT(acc.c0.sameShape(a.c0) && acc.c1.sameShape(a.c1),
                 "level mismatch in addMulPlain");
    checkPlainCovers(p, a);
    checkScalesMatch(acc.scale, a.scale * p.scale);
    parallelFor(0, a.c0.limbCount(), [&](size_t k) {
        const u64* pk = plainLimb(p, a, k);
        simd::kernels().macSpan(acc.c0.limbData(k), a.c0.limbData(k), pk,
                                a.c0.n(), a.c0.mod(k));
        simd::kernels().macSpan(acc.c1.limbData(k), a.c1.limbData(k), pk,
                                a.c1.n(), a.c1.mod(k));
    });
    count(HeOpType::PMult, acc.level());
    count(HeOpType::HAdd, acc.level());
}

Ciphertext
Evaluator::mulByI(const Ciphertext& a) const
{
    const RnsPoly& mono = ctx_.iMonomialNtt();
    Ciphertext out = a;
    for (RnsPoly* p : {&out.c0, &out.c1}) {
        HYDRA_ASSERT(p->nttForm() && p->specialCount() == 0,
                     "mulByI expects an NTT-form ciphertext");
        parallelFor(0, p->limbCount(), [&](size_t k) {
            simd::kernels().mulSpan(p->limbData(k), mono.limbData(k),
                                    p->n(), p->mod(k));
        });
    }
    count(HeOpType::PMult, out.level());
    return out;
}

Ciphertext
Evaluator::mulRelin(const Ciphertext& a, const Ciphertext& b) const
{
    HYDRA_ASSERT(relin_ != nullptr, "relin key not set");
    HYDRA_ASSERT(a.level() == b.level(), "level mismatch in mulRelin");

    RnsPoly d0 = a.c0;
    d0.mulPointwise(b.c0);
    RnsPoly d1 = a.c0;
    d1.mulPointwise(b.c1);
    d1.addMulPointwise(a.c1, b.c0);
    RnsPoly d2 = a.c1;
    d2.mulPointwise(b.c1);

    auto [t0, t1] = keySwitch(d2, *relin_);

    Ciphertext out;
    out.c0 = std::move(d0);
    out.c0.add(t0);
    out.c1 = std::move(d1);
    out.c1.add(t1);
    out.scale = a.scale * b.scale;
    count(HeOpType::CMult, out.level());
    return out;
}

Ciphertext
Evaluator::square(const Ciphertext& a) const
{
    return mulRelin(a, a);
}

Ciphertext
Evaluator::mulConstant(const Ciphertext& a, cplx c, double scale) const
{
    Plaintext pt = encoder_.encodeConstant(c, scale, a.level());
    return mulPlain(a, pt);
}

Ciphertext
Evaluator::addConstant(const Ciphertext& a, cplx c) const
{
    Plaintext pt = encoder_.encodeConstant(c, a.scale, a.level());
    return addPlain(a, pt);
}

Ciphertext
Evaluator::mulConstantRescale(const Ciphertext& a, cplx c,
                              double target_scale) const
{
    HYDRA_ASSERT(a.level() >= 2, "no level left for mulConstantRescale");
    double q_last = static_cast<double>(
        ctx_.basis()->mod(a.level() - 1).value());
    double u = target_scale * q_last / a.scale;
    Ciphertext out = rescale(mulConstant(a, c, u));
    out.scale = target_scale; // exact by construction
    return out;
}

void
Evaluator::rescaleInPlace(Ciphertext& a) const
{
    HYDRA_ASSERT(a.level() >= 2, "no limb left to rescale away");
    HYDRA_ASSERT(a.c0.specialCount() == 0, "rescale works over the chain");
    u64 q_last = a.c0.mod(a.level() - 1).value();
    a.c0.divideRoundByLast();
    a.c1.divideRoundByLast();
    a.scale /= static_cast<double>(q_last);
    count(HeOpType::Rescale, a.level());
}

Ciphertext
Evaluator::rescale(const Ciphertext& a) const
{
    Ciphertext out = a;
    rescaleInPlace(out);
    return out;
}

Ciphertext
Evaluator::dropToLevel(const Ciphertext& a, size_t levels) const
{
    HYDRA_ASSERT(levels >= 1 && levels <= a.level(), "bad target level");
    if (levels == a.level())
        return a;
    Ciphertext out;
    out.c0 = restrictTo(a.c0, levels);
    out.c1 = restrictTo(a.c1, levels);
    out.scale = a.scale;
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keyMac(const std::vector<RnsPoly>& digits, const EvalKey& key,
                  size_t levels, u64 galois) const
{
    size_t alpha = ctx_.params().specialPrimes;
    RnsPoly acc0(ctx_.basis(), levels, alpha, true);
    RnsPoly acc1(ctx_.basis(), levels, alpha, true);

    // Hoisting: the Galois map commutes with ModUp, so a permutation of
    // the precomputed NTT-form digits stands in for decomposing the
    // rotated polynomial.  The permutation is the same for every limb
    // and digit, so it is fetched once from the memo and applied as a
    // gather inside the accumulation loop.
    const std::vector<size_t>* map = nullptr;
    if (galois != 1)
        map = &RnsPoly::nttAutomorphismMapCached(acc0.n(), galois);

    // The levels + alpha output limbs are independent: each accumulates
    // every digit against its own key limb.  This is the dominant cost
    // of mulRelin/rotate and the same limb-level parallelism the
    // paper's compute units exploit, so the output-limb loop goes to
    // the pool.  Key limbs past the chain sit after all L chain limbs.
    size_t nn = acc0.n();
    size_t key_special_pos = ctx_.levels();
    parallelFor(0, levels + alpha, [&](size_t kpos) {
        size_t key_pos =
            kpos < levels ? kpos : key_special_pos + (kpos - levels);
        const Modulus& mj = acc0.mod(kpos);
        u64* a0 = acc0.limbData(kpos);
        u64* a1 = acc1.limbData(kpos);
        // The hoisted-rotation variant gathers the digit limb through
        // the Galois permutation once into pooled scratch so the MAC
        // below always runs on contiguous spans.
        PoolBuffer gathered;
        if (map)
            gathered = BufferPool::global().acquire(nn);
        for (size_t i = 0; i < digits.size(); ++i) {
            const u64* dl = digits[i].limbData(kpos);
            const u64* bkey = key.b[i].limbData(key_pos);
            const u64* akey = key.a[i].limbData(key_pos);
            if (map) {
                u64* g = gathered.data();
                for (size_t t = 0; t < nn; ++t)
                    g[t] = dl[(*map)[t]];
                dl = g;
            }
            simd::kernels().macPairSpan(a0, a1, dl, bkey, akey, nn,
                                        mj);
        }
    });

    count(HeOpType::KeySwitch, levels);
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitch(const RnsPoly& d, const EvalKey& key) const
{
    auto [t0, t1] = keyMac(d.modUp(), key, d.nLimbs());
    // ModDown: divide by P, the product of the special primes.
    t0.divideRoundByLast(t0.specialCount());
    t1.divideRoundByLast(t1.specialCount());
    return {std::move(t0), std::move(t1)};
}

Ciphertext
Evaluator::applyGalois(const Ciphertext& a, u64 galois, HeOpType op) const
{
    HYDRA_ASSERT(galois_ != nullptr, "Galois keys not set");
    const EvalKey& key = galois_->at(galois);

    // The automorphism of c1 is an NTT-domain index shuffle; ModUp
    // takes it from there.
    auto [t0, t1] = keySwitch(a.c1.automorphismNtt(galois), key);

    // c0 never leaves the NTT domain: the automorphism is the pure
    // index shuffle gathered straight into the keyswitch accumulator,
    // saving an inverse + forward NTT pass per limb.
    Ciphertext out;
    out.c0 = std::move(t0);
    out.c0.addAutomorphismNtt(a.c0, galois);
    out.c1 = std::move(t1);
    out.scale = a.scale;
    count(op, out.level());
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext& a, int steps) const
{
    u64 g = ctx_.galoisForRotation(steps);
    if (g == 1)
        return a;
    return applyGalois(a, g, HeOpType::Rotate);
}

Ciphertext
Evaluator::rotateDecomposed(const Ciphertext& a, int steps) const
{
    size_t slots = ctx_.slots();
    size_t r = static_cast<size_t>(
        ((steps % static_cast<long long>(slots)) +
         static_cast<long long>(slots)) %
        static_cast<long long>(slots));
    Ciphertext out = a;
    for (size_t bit = 0; (size_t{1} << bit) <= r; ++bit)
        if (r & (size_t{1} << bit))
            out = rotate(out, static_cast<int>(size_t{1} << bit));
    return out;
}

Ciphertext
Evaluator::conjugate(const Ciphertext& a) const
{
    return applyGalois(a, ctx_.galoisForConjugation(),
                       HeOpType::Conjugate);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext& a,
                         const std::vector<int>& steps) const
{
    // ModDown(P * rot(c0) + t0) is rot(c0) + ModDown(t0) exactly: P * x
    // vanishes mod P, so the ModDown's correction reads t0 alone.
    std::vector<Ciphertext> out = rotateHoistedQP(a, steps);
    parallelForOuter(out.size(), [&](size_t i) {
        modDownInPlace(out[i]);
    });
    return out;
}

RnsPoly
Evaluator::liftQP(const RnsPoly& p) const
{
    RnsPoly out(p.basis(), p.nLimbs(), ctx_.params().specialPrimes, true);
    std::vector<u64> scalars(out.limbCount());
    for (size_t k = 0; k < out.limbCount(); ++k) {
        if (k < p.nLimbs())
            out.copyLimbFrom(k, p, k);
        scalars[k] = pMod_[out.basisIndex(k)];
    }
    out.mulScalarPerLimb(scalars);
    return out;
}

std::vector<Ciphertext>
Evaluator::rotateHoistedQP(const Ciphertext& a,
                           const std::vector<int>& steps) const
{
    HYDRA_ASSERT(galois_ != nullptr, "Galois keys not set");
    std::vector<RnsPoly> digits = a.c1.modUp();
    RnsPoly lifted_c0 = liftQP(a.c0);

    // Each step is an independent keyswitch over the shared digits, so
    // the steps form the op-level loop: one rotation per pool task when
    // there are enough of them, else limb-parallel rotations in turn.
    std::vector<Ciphertext> out(steps.size());
    parallelForOuter(steps.size(), [&](size_t i) {
        u64 g = ctx_.galoisForRotation(steps[i]);
        Ciphertext& ct = out[i];
        ct.scale = a.scale;
        if (g == 1) {
            ct.c0 = lifted_c0;
            ct.c1 = liftQP(a.c1);
            return;
        }
        auto [t0, t1] = keyMac(digits, galois_->at(g), a.level(), g);
        // Accumulate the permuted P * c0 straight into the key MAC
        // instead of materializing the rotated polynomial.
        ct.c0 = std::move(t0);
        ct.c0.addAutomorphismNtt(lifted_c0, g);
        ct.c1 = std::move(t1);
        count(HeOpType::Rotate, ct.level());
    });
    return out;
}

Ciphertext
Evaluator::rotateQP(Ciphertext a, int steps) const
{
    HYDRA_ASSERT(galois_ != nullptr, "Galois keys not set");
    HYDRA_ASSERT(a.c0.sameShape(a.c1) && a.c0.specialCount() > 0,
                 "rotateQP wants a ciphertext over Q*P");
    u64 g = ctx_.galoisForRotation(steps);
    if (g == 1)
        return a;
    // Only c1 needs the chain basis for its ModUp; c0 stays over Q*P.
    a.c1.divideRoundByLast(a.c1.specialCount());
    auto [t0, t1] = keyMac(a.c1.automorphismNtt(g).modUp(),
                           galois_->at(g), a.level());
    Ciphertext out;
    out.c0 = std::move(t0);
    out.c0.addAutomorphismNtt(a.c0, g);
    out.c1 = std::move(t1);
    out.scale = a.scale;
    count(HeOpType::Rotate, out.level());
    return out;
}

void
Evaluator::modDownInPlace(Ciphertext& a) const
{
    HYDRA_ASSERT(a.c0.sameShape(a.c1) && a.c0.specialCount() > 0,
                 "ModDown wants a ciphertext over Q*P");
    a.c0.divideRoundByLast(a.c0.specialCount());
    a.c1.divideRoundByLast(a.c1.specialCount());
}

} // namespace hydra
