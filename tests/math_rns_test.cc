/**
 * @file
 * RNS basis, big-integer CRT composition and RnsPoly operation tests.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "math/bigint.hh"
#include "math/poly.hh"
#include "math/primes.hh"
#include "math/rns.hh"

namespace hydra {
namespace {

std::shared_ptr<RnsBasis>
makeBasis(size_t n, size_t q_count, int bits = 45, int sp_bits = 50)
{
    auto q = nttPrimes(n, bits, q_count);
    auto p = nttPrimes(n, sp_bits, 1, q);
    return std::make_shared<RnsBasis>(n, q, p);
}

TEST(BigUInt, HornerAndSub)
{
    BigUInt x(7);
    x.mulAdd(10, 3); // 73
    EXPECT_EQ(x.modU64(100), 73u);
    x.mulAdd(1ULL << 40, 5);
    // x = 73 * 2^40 + 5
    EXPECT_EQ(x.modU64(1ULL << 40), 5u);
    BigUInt y(1);
    BigUInt big;
    big.addU64(0);
    EXPECT_TRUE(big.isZero());
    BigUInt a(100), b(58);
    a.sub(b);
    EXPECT_EQ(a.modU64(1000), 42u);
    EXPECT_EQ(a.compare(BigUInt(42)), 0);
    EXPECT_LT(BigUInt(41).compare(a), 0);
    EXPECT_GT(BigUInt(43).compare(a), 0);
    (void)y;
}

TEST(BigUInt, MultiLimbCarryChain)
{
    BigUInt x(~0ULL);
    x.addU64(1); // 2^64
    EXPECT_EQ(x.limbCount(), 2u);
    EXPECT_EQ(x.modU64(1000000007ULL), (1ULL << 63) % 1000000007ULL * 2 %
                                           1000000007ULL);
    long double v = x.toLongDouble();
    EXPECT_NEAR(static_cast<double>(v / 18446744073709551616.0L), 1.0, 1e-12);
}

TEST(RnsBasis, CrossInversesAndGarner)
{
    auto basis = makeBasis(64, 4);
    for (size_t l = 0; l < basis->totalCount(); ++l) {
        for (size_t j = 0; j < basis->totalCount(); ++j) {
            if (l == j)
                continue;
            const Modulus& qj = basis->mod(j);
            u64 ql = qj.reduceU64(basis->mod(l).value());
            EXPECT_EQ(qj.mulMod(ql, basis->invQlModQj(l, j)), 1u);
        }
    }
}

TEST(RnsBasis, ComposeCenteredRoundTrip)
{
    auto basis = makeBasis(64, 4);
    std::mt19937_64 rng(7);
    size_t count = 4;
    for (int iter = 0; iter < 200; ++iter) {
        // Draw a signed value well within Q and check round-trip.
        i64 v = static_cast<i64>(rng() % (1ULL << 60)) -
                static_cast<i64>(1ULL << 59);
        std::vector<u64> residues(count);
        for (size_t k = 0; k < count; ++k)
            residues[k] = basis->mod(k).reduceI64(v);
        long double got = basis->composeCentered(residues, count);
        EXPECT_EQ(static_cast<i64>(got), v);
    }
}

TEST(RnsBasis, ComposeCenteredNegativeBoundary)
{
    auto basis = makeBasis(16, 2);
    // -1 mod Q composes to -1.
    std::vector<u64> residues = {basis->mod(0).value() - 1,
                                 basis->mod(1).value() - 1};
    EXPECT_EQ(static_cast<i64>(basis->composeCentered(residues, 2)), -1);
}

class RnsPolyTest : public ::testing::TestWithParam<size_t>
{
  protected:
    void
    SetUp() override
    {
        n_ = 64;
        basis_ = makeBasis(n_, GetParam());
        rng_.seed(99);
    }

    RnsPoly
    randomPoly(size_t n_limbs, bool has_special = false)
    {
        std::vector<i64> c(n_);
        for (auto& x : c)
            x = static_cast<i64>(rng_() % 2000) - 1000;
        return RnsPoly::fromSigned(basis_, n_limbs, has_special, c);
    }

    size_t n_;
    std::shared_ptr<RnsBasis> basis_;
    std::mt19937_64 rng_;
};

TEST_P(RnsPolyTest, AddSubNegateConsistency)
{
    size_t limbs = GetParam();
    auto a = randomPoly(limbs);
    auto b = randomPoly(limbs);
    auto c = a;
    c.add(b);
    c.sub(b);
    for (size_t k = 0; k < a.limbCount(); ++k)
        EXPECT_EQ(c.limb(k), a.limb(k));
    auto d = a;
    d.negate();
    d.add(a);
    for (size_t k = 0; k < d.limbCount(); ++k)
        for (u64 x : d.limb(k))
            EXPECT_EQ(x, 0u);
}

TEST_P(RnsPolyTest, NttRoundTrip)
{
    auto a = randomPoly(GetParam(), true);
    auto saved = a;
    a.toNtt();
    EXPECT_TRUE(a.nttForm());
    a.fromNtt();
    for (size_t k = 0; k < a.limbCount(); ++k)
        EXPECT_EQ(a.limb(k), saved.limb(k));
}

TEST_P(RnsPolyTest, PointwiseMulMatchesIntegerProduct)
{
    // (small a) * (small b) has coefficients well below every prime, so
    // the RNS result must equal the integer negacyclic product in every
    // limb.
    size_t limbs = GetParam();
    std::vector<i64> ac(n_, 0), bc(n_, 0);
    ac[1] = 3;
    ac[5] = -2;
    bc[0] = 7;
    bc[n_ - 1] = 1;
    auto a = RnsPoly::fromSigned(basis_, limbs, false, ac);
    auto b = RnsPoly::fromSigned(basis_, limbs, false, bc);
    a.toNtt();
    b.toNtt();
    a.mulPointwise(b);
    a.fromNtt();

    // Expected: 21 X + (-14) X^5 + 3 X^n -> -3 wrap... compute directly.
    std::vector<i64> expect(n_, 0);
    auto acc = [&](size_t i, size_t j, i64 v) {
        size_t k = i + j;
        if (k < n_)
            expect[k] += v;
        else
            expect[k - n_] -= v;
    };
    for (size_t i = 0; i < n_; ++i)
        for (size_t j = 0; j < n_; ++j)
            if (ac[i] && bc[j])
                acc(i, j, ac[i] * bc[j]);

    for (size_t k = 0; k < a.limbCount(); ++k) {
        const Modulus& m = a.mod(k);
        for (size_t i = 0; i < n_; ++i)
            EXPECT_EQ(a.limb(k)[i], m.reduceI64(expect[i]));
    }
}

TEST_P(RnsPolyTest, AutomorphismComposesAndInverts)
{
    auto a = randomPoly(GetParam());
    u64 two_n = 2 * n_;
    u64 g = 5;
    // g * g_inv = 1 mod 2n  =>  automorphism composition is identity.
    u64 g_inv = 1;
    while ((g_inv * g) % two_n != 1)
        g_inv += 2;
    auto b = a.automorphism(g).automorphism(g_inv);
    for (size_t k = 0; k < a.limbCount(); ++k)
        EXPECT_EQ(b.limb(k), a.limb(k));
}

TEST_P(RnsPolyTest, AutomorphismPreservesRingStructure)
{
    // phi(a * b) == phi(a) * phi(b)
    auto a = randomPoly(GetParam());
    auto b = randomPoly(GetParam());
    u64 g = 2 * n_ - 1; // conjugation-like element

    auto prod = a;
    prod.toNtt();
    auto bn = b;
    bn.toNtt();
    prod.mulPointwise(bn);
    prod.fromNtt();
    auto lhs = prod.automorphism(g);

    auto pa = a.automorphism(g);
    auto pb = b.automorphism(g);
    pa.toNtt();
    pb.toNtt();
    pa.mulPointwise(pb);
    pa.fromNtt();

    for (size_t k = 0; k < lhs.limbCount(); ++k)
        EXPECT_EQ(lhs.limb(k), pa.limb(k));
}

TEST_P(RnsPolyTest, DivideRoundByLastMatchesRational)
{
    // Take value v divisible-ish by q_last: check (v - [v]_ql)/ql.
    size_t limbs = GetParam();
    if (limbs < 2)
        GTEST_SKIP();
    auto a = randomPoly(limbs);
    auto coeff_domain = a;
    auto ntt_domain = a;
    ntt_domain.toNtt();
    coeff_domain.divideRoundByLast();
    ntt_domain.divideRoundByLast();
    ntt_domain.fromNtt();
    for (size_t k = 0; k < coeff_domain.limbCount(); ++k)
        EXPECT_EQ(coeff_domain.limb(k), ntt_domain.limb(k));
    EXPECT_EQ(coeff_domain.nLimbs(), limbs - 1);
}

TEST_P(RnsPolyTest, DivideRoundByLastExactOnMultiples)
{
    size_t limbs = GetParam();
    if (limbs < 2)
        GTEST_SKIP();
    u64 ql = basis_->mod(limbs - 1).value();
    // Construct poly with every coefficient = c * q_last exactly.
    std::vector<i64> c(n_);
    for (size_t i = 0; i < n_; ++i)
        c[i] = static_cast<i64>(i % 97) - 48;
    std::vector<i64> scaled(n_);
    for (size_t i = 0; i < n_; ++i)
        scaled[i] = c[i] * static_cast<i64>(ql % (1ULL << 20));
    // Use small multiplier to stay in i64: emulate q via RNS directly.
    RnsPoly p(basis_, limbs, false, false);
    for (size_t k = 0; k < limbs; ++k) {
        const Modulus& m = basis_->mod(k);
        u64 qlk = m.reduceU64(ql);
        for (size_t i = 0; i < n_; ++i)
            p.limb(k)[i] = m.mulMod(m.reduceI64(c[i]), qlk);
    }
    p.divideRoundByLast();
    for (size_t k = 0; k < p.limbCount(); ++k) {
        const Modulus& m = basis_->mod(k);
        for (size_t i = 0; i < n_; ++i)
            EXPECT_EQ(p.limb(k)[i], m.reduceI64(c[i]));
    }
}

INSTANTIATE_TEST_SUITE_P(LimbCounts, RnsPolyTest,
                         ::testing::Values(1, 2, 3, 6));

/** A 7-prime chain (45 bits) with `alpha` special primes (50 bits). */
std::shared_ptr<RnsBasis>
makeHybridBasis(size_t n, size_t alpha)
{
    auto q = nttPrimes(n, 45, 7);
    auto p = nttPrimes(n, 50, alpha, q);
    return std::make_shared<RnsBasis>(n, q, p);
}

/** Exact CRT (Garner) of residues[i] mod basis primes [begin, end). */
BigUInt
exactCrt(const RnsBasis& b, const std::vector<u64>& residues, size_t begin,
         size_t end)
{
    std::vector<u64> d;
    for (size_t i = begin; i < end; ++i) {
        const Modulus& m = b.mod(i);
        // acc = d_0 + d_1 m_0 + ... mod m_i, prod = m_0 ... m_{i-1}.
        u64 acc = 0;
        u64 prod = 1;
        for (size_t j = begin; j < i; ++j) {
            acc = m.addMod(acc, m.mulMod(m.reduceU64(d[j - begin]), prod));
            prod = m.mulMod(prod, m.reduceU64(b.mod(j).value()));
        }
        d.push_back(m.mulMod(m.subMod(residues[i - begin], acc),
                             m.invMod(prod)));
    }
    BigUInt x(d.back());
    for (size_t i = end - begin - 1; i-- > 0;)
        x.mulAdd(b.mod(begin + i).value(), d[i]);
    return x;
}

/** (a + u * b) mod m for a signed multiple u. */
u64
plusMultiple(const Modulus& m, u64 a, long u, u64 b)
{
    u64 ub = m.mulMod(m.reduceU64(static_cast<u64>(u < 0 ? -u : u)), b);
    return u < 0 ? m.subMod(a, ub) : m.addMod(a, ub);
}

/** Random residues on every limb: a uniform value mod the product. */
RnsPoly
randomResidues(std::shared_ptr<const RnsBasis> basis, size_t levels,
               size_t n_special, std::mt19937_64& rng)
{
    RnsPoly p(basis, levels, n_special, false);
    for (size_t k = 0; k < p.limbCount(); ++k)
        for (u64& x : p.limb(k))
            x = rng() % p.mod(k).value();
    return p;
}

class HybridRnsTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(HybridRnsTest, ModUpMatchesExactCrtUpToSmallMultiple)
{
    // Every digit of ModUp is X + u P_B on all limbs at once, with X
    // the exact CRT value of the digit's residues, one integer u per
    // coefficient and |u| <= |B| / 2 + 1; a one-prime digit is the
    // centered residue itself.
    size_t alpha = GetParam();
    size_t n = 16;
    auto basis = makeHybridBasis(n, alpha);
    std::mt19937_64 rng(alpha);
    for (size_t levels : {size_t{7}, size_t{4}, size_t{1}}) {
        RnsPoly x = randomResidues(basis, levels, 0, rng);
        RnsPoly x_ntt = x;
        x_ntt.toNtt();
        std::vector<RnsPoly> digits = x_ntt.modUp();
        ASSERT_EQ(digits.size(), (levels + alpha - 1) / alpha);
        for (size_t j = 0; j < digits.size(); ++j) {
            size_t b = j * alpha;
            size_t e = std::min(b + alpha, levels);
            RnsPoly dig = digits[j];
            ASSERT_EQ(dig.nLimbs(), levels);
            ASSERT_EQ(dig.specialCount(), alpha);
            dig.fromNtt();
            for (size_t i = 0; i < n; ++i) {
                std::vector<u64> res;
                for (size_t k = b; k < e; ++k)
                    res.push_back(x.limb(k)[i]);
                BigUInt big = exactCrt(*basis, res, b, e);
                BigUInt prod(1);
                for (size_t k = b; k < e; ++k)
                    prod.mulU64(basis->mod(k).value());
                BigUInt twice = big;
                twice.mulU64(2);
                long centered_u = twice.compare(prod) > 0 ? -1 : 0;
                long bound = static_cast<long>(e - b) / 2 + 1;
                long found = 0;
                bool ok = false;
                for (long u = -bound; u <= bound && !ok; ++u) {
                    ok = true;
                    for (size_t kpos = 0; kpos < dig.limbCount(); ++kpos) {
                        const Modulus& m = dig.mod(kpos);
                        u64 want = plusMultiple(m, big.modU64(m.value()), u,
                                                prod.modU64(m.value()));
                        if (dig.limb(kpos)[i] != want) {
                            ok = false;
                            break;
                        }
                    }
                    found = u;
                }
                ASSERT_TRUE(ok) << "alpha " << alpha << " levels " << levels
                                << " digit " << j << " coeff " << i;
                if (e - b == 1) {
                    EXPECT_EQ(found, centered_u);
                }
            }
        }
    }
}

TEST_P(HybridRnsTest, ModDownMatchesExactCrtUpToSmallMultiple)
{
    // ModDown by P = prod of the alpha special primes leaves
    // (x - X_P - u P) / P on every chain limb, X_P the exact CRT value
    // of the special residues and one small integer u per coefficient;
    // with one special prime X_P + u P is its centered value (exact
    // divide-and-round).  Coefficient and NTT domains agree bit for bit.
    size_t alpha = GetParam();
    size_t n = 16;
    auto basis = makeHybridBasis(n, alpha);
    std::mt19937_64 rng(100 + alpha);
    for (size_t levels : {size_t{7}, size_t{3}, size_t{1}}) {
        RnsPoly x = randomResidues(basis, levels, alpha, rng);
        RnsPoly down = x;
        down.divideRoundByLast(alpha);
        RnsPoly down_ntt = x;
        down_ntt.toNtt();
        down_ntt.divideRoundByLast(alpha);
        down_ntt.fromNtt();
        ASSERT_EQ(down.nLimbs(), levels);
        ASSERT_EQ(down.specialCount(), 0u);
        for (size_t k = 0; k < levels; ++k)
            ASSERT_EQ(down.limb(k), down_ntt.limb(k));

        size_t sb = basis->specialIndex();
        size_t se = sb + alpha;
        BigUInt prod(1);
        for (size_t k = sb; k < se; ++k)
            prod.mulU64(basis->mod(k).value());
        for (size_t i = 0; i < n; ++i) {
            std::vector<u64> res;
            for (size_t k = levels; k < levels + alpha; ++k)
                res.push_back(x.limb(k)[i]);
            BigUInt xp = exactCrt(*basis, res, sb, se);
            BigUInt twice = xp;
            twice.mulU64(2);
            long centered_u = twice.compare(prod) > 0 ? -1 : 0;
            long bound = static_cast<long>(alpha) / 2 + 1;
            long found = 0;
            bool ok = false;
            for (long u = -bound; u <= bound && !ok; ++u) {
                ok = true;
                for (size_t k = 0; k < levels; ++k) {
                    const Modulus& m = basis->mod(k);
                    u64 rem = plusMultiple(m, xp.modU64(m.value()), u,
                                           prod.modU64(m.value()));
                    u64 want = m.mulMod(m.subMod(x.limb(k)[i], rem),
                                        m.invMod(prod.modU64(m.value())));
                    if (down.limb(k)[i] != want) {
                        ok = false;
                        break;
                    }
                }
                found = u;
            }
            ASSERT_TRUE(ok) << "alpha " << alpha << " levels " << levels
                            << " coeff " << i;
            if (alpha == 1) {
                EXPECT_EQ(found, centered_u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SpecialPrimes, HybridRnsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace hydra
