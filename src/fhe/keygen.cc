#include "fhe/keygen.hh"

#include "common/logging.hh"
#include "common/parallel.hh"
#include "math/simd/simd.hh"

namespace hydra {

KeyGenerator::KeyGenerator(const CkksContext& ctx)
    : ctx_(ctx), rng_(ctx.params().seed)
{
}

RnsPoly
KeyGenerator::sampleUniformFull()
{
    RnsPoly p(ctx_.basis(), ctx_.levels(), ctx_.params().specialPrimes,
              true);
    for (size_t k = 0; k < p.limbCount(); ++k) {
        u64 q = p.mod(k).value();
        for (auto& x : p.limb(k))
            x = rng_.uniformU64(q);
    }
    return p;
}

SecretKey
KeyGenerator::secretKey()
{
    std::vector<i64> s(ctx_.n(), 0);
    size_t h = ctx_.params().secretHammingWeight;
    if (h == 0) {
        for (auto& x : s)
            x = rng_.ternary();
    } else {
        // Sparse ternary secret with exactly h nonzero coefficients.
        HYDRA_ASSERT(h <= ctx_.n(), "Hamming weight exceeds ring size");
        size_t placed = 0;
        while (placed < h) {
            size_t idx = rng_.uniformU64(ctx_.n());
            if (s[idx] != 0)
                continue;
            s[idx] = rng_.uniformU64(2) ? 1 : -1;
            ++placed;
        }
    }
    RnsPoly p = RnsPoly::fromSigned(ctx_.basis(), ctx_.levels(),
                                    ctx_.params().specialPrimes, s);
    p.toNtt();
    return SecretKey{std::move(p)};
}

PublicKey
KeyGenerator::publicKey(const SecretKey& sk)
{
    // (b, a) with b = -a s + e over Q only (no special limb needed).
    RnsPoly a(ctx_.basis(), ctx_.levels(), 0, true);
    for (size_t k = 0; k < a.limbCount(); ++k) {
        u64 q = a.mod(k).value();
        for (auto& x : a.limb(k))
            x = rng_.uniformU64(q);
    }
    std::vector<i64> ev(ctx_.n());
    for (auto& x : ev)
        x = rng_.smallError(ctx_.params().errorStd);
    RnsPoly e = RnsPoly::fromSigned(ctx_.basis(), ctx_.levels(), 0, ev);
    e.toNtt();

    // Restrict s to the Q limbs.
    RnsPoly b(ctx_.basis(), ctx_.levels(), 0, true);
    for (size_t k = 0; k < b.limbCount(); ++k) {
        const Modulus& m = b.mod(k);
        const auto sl = sk.s.limb(k);
        const auto al = a.limb(k);
        const auto bl = b.limb(k);
        const auto el = e.limb(k);
        for (size_t i = 0; i < bl.size(); ++i)
            bl[i] = m.addMod(m.negMod(m.mulMod(al[i], sl[i])), el[i]);
    }
    return PublicKey{std::move(b), std::move(a)};
}

EvalKey
KeyGenerator::makeSwitchKey(const RnsPoly& src, const SecretKey& sk)
{
    size_t levels = ctx_.levels();
    size_t alpha = ctx_.params().specialPrimes;
    HYDRA_ASSERT(src.nttForm() && src.nLimbs() == levels &&
                     src.specialCount() == alpha,
                 "switch-key source must be NTT form over the full basis");
    size_t digits = ctx_.params().dnum();
    size_t n = ctx_.n();

    // The random draws stay serial and in digit order (a_j, then e_j),
    // so the key does not depend on the thread count.
    EvalKey key;
    key.a.reserve(digits);
    std::vector<i64> errors(digits * n);
    for (size_t j = 0; j < digits; ++j) {
        key.a.push_back(sampleUniformFull());
        for (size_t i = 0; i < n; ++i)
            errors[j * n + i] = rng_.smallError(ctx_.params().errorStd);
    }

    // The rest is independent per (digit, limb): b_j = -a_j s + e_j,
    // plus (P mod q_k) * src on digit j's own limbs.
    key.b.reserve(digits);
    for (size_t j = 0; j < digits; ++j)
        key.b.emplace_back(ctx_.basis(), levels, alpha, true);
    size_t width = levels + alpha;
    parallelFor(0, digits * width, [&](size_t job) {
        size_t j = job / width;
        size_t k = job % width;
        RnsPoly& b = key.b[j];
        const Modulus& m = b.mod(k);
        u64* bl = b.limbData(k);
        simd::kernels().reduceCenteredSpan(bl, errors.data() + j * n, n,
                                           m);
        ctx_.basis()->ntt(b.basisIndex(k)).forward(bl);
        const u64* al = key.a[j].limbData(k);
        const u64* sl = sk.s.limbData(k);
        for (size_t t = 0; t < n; ++t)
            bl[t] = m.addMod(m.negMod(m.mulMod(al[t], sl[t])), bl[t]);
        if (k < levels && k / alpha == j) {
            u64 p_mod = ctx_.pModQ(k);
            const u64* srcl = src.limbData(k);
            for (size_t t = 0; t < n; ++t)
                bl[t] = m.addMod(bl[t], m.mulMod(p_mod, srcl[t]));
        }
    });
    return key;
}

EvalKey
KeyGenerator::relinKey(const SecretKey& sk)
{
    RnsPoly s2 = sk.s;
    s2.mulPointwise(sk.s);
    return makeSwitchKey(s2, sk);
}

EvalKey
KeyGenerator::galoisKey(const SecretKey& sk, u64 galois)
{
    return makeSwitchKey(sk.s.automorphismNtt(galois), sk);
}

std::vector<int>
KeyGenerator::powerOfTwoSteps() const
{
    std::vector<int> steps;
    for (size_t s = 1; s < ctx_.slots(); s <<= 1)
        steps.push_back(static_cast<int>(s));
    return steps;
}

GaloisKeys
KeyGenerator::galoisKeys(const SecretKey& sk, const std::vector<int>& steps,
                         bool with_conjugation)
{
    GaloisKeys out;
    for (int r : steps) {
        u64 g = ctx_.galoisForRotation(r);
        if (g != 1 && !out.has(g))
            out.keys.emplace(g, galoisKey(sk, g));
    }
    if (with_conjugation) {
        u64 g = ctx_.galoisForConjugation();
        if (!out.has(g))
            out.keys.emplace(g, galoisKey(sk, g));
    }
    return out;
}

} // namespace hydra
