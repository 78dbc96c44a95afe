#include "fhe/params.hh"

#include <bit>

#include "common/logging.hh"

namespace hydra {

void
CkksParams::validate() const
{
    if (!std::has_single_bit(n) || n < 8)
        fatal("ring dimension must be a power of two >= 8, got %zu", n);
    if (levels < 1 || levels > 64)
        fatal("modulus chain length %zu out of range", levels);
    if (scaleBits < 20 || scaleBits > 59)
        fatal("scaleBits %d out of range [20, 59]", scaleBits);
    if (firstPrimeBits < scaleBits || firstPrimeBits > 60)
        fatal("firstPrimeBits %d out of range", firstPrimeBits);
    if (specialPrimeBits < 20 || specialPrimeBits > 61)
        fatal("specialPrimeBits %d out of range", specialPrimeBits);
    if (specialPrimes < 1 || specialPrimes > levels)
        fatal("specialPrimes %zu out of range [1, %zu]", specialPrimes,
              levels);
    // P must cover the widest digit, q_0 and alpha - 1 scale primes, so
    // ModDown divides the digit noise away.
    int alpha = static_cast<int>(specialPrimes);
    if (alpha * specialPrimeBits < firstPrimeBits + (alpha - 1) * scaleBits)
        fatal("%zu special primes of %d bits do not cover one digit",
              specialPrimes, specialPrimeBits);
}

std::string
CkksParams::describe() const
{
    return strf("CKKS(N=2^%d, L=%zu, scale=2^%d, logQ=%d, logPQ=%d, "
                "dnum=%zu, alpha=%zu)",
                std::countr_zero(n), levels, scaleBits, logQ(), logPQ(),
                dnum(), specialPrimes);
}

CkksParams
CkksParams::unitTest()
{
    CkksParams p;
    p.n = 1 << 10;
    p.levels = 6;
    p.scaleBits = 40;
    p.firstPrimeBits = 50;
    p.specialPrimeBits = 51;
    return p;
}

CkksParams
CkksParams::bootstrapTest()
{
    CkksParams p;
    p.n = 1 << 10;
    // q_0 == scale: EvalMod folds message and modulus at the same scale.
    p.levels = 20;
    p.scaleBits = 42;
    p.firstPrimeBits = 42;
    // Below 2^50 every limb, special ones included, runs the IFMA
    // kernels; 5 x 50 bits still cover one 5-prime digit.
    p.specialPrimeBits = 50;
    // alpha = 5 gives dnum = 4, the hybrid keyswitch OpCostModel prices.
    p.specialPrimes = 5;
    p.secretHammingWeight = 64;
    return p;
}

CkksParams
CkksParams::paperFullScale()
{
    CkksParams p;
    p.n = 1 << 16;
    // 1260 = 60 + 24 * 50 symbolically; SHARP uses short words but the
    // architecture model only consumes logQ/limb counts.
    p.levels = 25;
    p.scaleBits = 50;
    p.firstPrimeBits = 60;
    p.specialPrimeBits = 54;
    p.specialPrimes = 8; // log(PQ) - logQ = 8 * 54 = 432
    return p;
}

} // namespace hydra
