#include "fhe/context.hh"

#include "common/logging.hh"
#include "math/primes.hh"

namespace hydra {

CkksContext::CkksContext(const CkksParams& params)
    : params_(params)
{
    params_.validate();

    // Build the modulus chain: q_0 (decode headroom), then L-1 scale
    // primes, then the alpha special primes.  All distinct; the first
    // special prime is the largest specialPrimeBits-bit NTT prime.
    std::vector<u64> chain = nttPrimes(params_.n, params_.firstPrimeBits, 1);
    if (params_.levels > 1) {
        auto scale_primes = nttPrimes(params_.n, params_.scaleBits,
                                      params_.levels - 1, chain);
        chain.insert(chain.end(), scale_primes.begin(), scale_primes.end());
    }
    std::vector<u64> special = nttPrimes(
        params_.n, params_.specialPrimeBits, params_.specialPrimes, chain);

    basis_ = std::make_shared<RnsBasis>(params_.n, chain, special);

    pModQ_.resize(params_.levels);
    for (size_t k = 0; k < params_.levels; ++k) {
        const Modulus& q = basis_->mod(k);
        u64 prod = 1;
        for (u64 p : special)
            prod = q.mulMod(prod, q.reduceU64(p));
        pModQ_[k] = prod;
    }

    std::vector<i64> monomial(params_.n, 0);
    monomial[params_.n / 2] = 1;
    iMonomial_ = RnsPoly::fromSigned(basis_, params_.levels, 0,
                                     monomial);
    iMonomial_.toNtt();
}

u64
CkksContext::galoisForRotation(int steps) const
{
    size_t slots = params_.n / 2;
    u64 two_n = 2 * params_.n;
    // Normalize steps into [0, slots).
    long long r = steps % static_cast<long long>(slots);
    if (r < 0)
        r += static_cast<long long>(slots);
    u64 g = 1;
    for (long long i = 0; i < r; ++i)
        g = (g * 5) % two_n;
    return g;
}

} // namespace hydra
