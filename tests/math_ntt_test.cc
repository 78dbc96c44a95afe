/**
 * @file
 * NTT round-trip, linearity and negacyclic convolution-theorem tests.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "math/ntt.hh"
#include "math/primes.hh"

namespace hydra {
namespace {

/** Schoolbook negacyclic convolution in Z_q[X]/(X^n + 1). */
std::vector<u64>
negacyclicMul(const std::vector<u64>& a, const std::vector<u64>& b,
              const Modulus& q)
{
    size_t n = a.size();
    std::vector<u64> out(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            u64 prod = q.mulMod(a[i], b[j]);
            size_t k = i + j;
            if (k < n)
                out[k] = q.addMod(out[k], prod);
            else
                out[k - n] = q.subMod(out[k - n], prod);
        }
    }
    return out;
}

std::vector<u64>
randomPoly(size_t n, const Modulus& q, std::mt19937_64& rng)
{
    std::vector<u64> a(n);
    for (auto& x : a)
        x = rng() % q.value();
    return a;
}

class NttParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>>
{
  protected:
    void
    SetUp() override
    {
        n_ = std::get<0>(GetParam());
        int bits = std::get<1>(GetParam());
        q_ = Modulus(nttPrimes(n_, bits, 1)[0]);
        table_ = std::make_unique<NttTable>(n_, q_);
    }

    size_t n_;
    Modulus q_;
    std::unique_ptr<NttTable> table_;
};

TEST_P(NttParamTest, RoundTrip)
{
    std::mt19937_64 rng(42);
    auto a = randomPoly(n_, q_, rng);
    auto saved = a;
    table_->forward(a);
    EXPECT_NE(a, saved); // transform actually does something
    table_->inverse(a);
    EXPECT_EQ(a, saved);
}

TEST_P(NttParamTest, Linearity)
{
    std::mt19937_64 rng(43);
    auto a = randomPoly(n_, q_, rng);
    auto b = randomPoly(n_, q_, rng);
    std::vector<u64> sum(n_);
    for (size_t i = 0; i < n_; ++i)
        sum[i] = q_.addMod(a[i], b[i]);

    table_->forward(a);
    table_->forward(b);
    table_->forward(sum);
    for (size_t i = 0; i < n_; ++i)
        EXPECT_EQ(sum[i], q_.addMod(a[i], b[i]));
}

TEST_P(NttParamTest, ConvolutionTheorem)
{
    if (n_ > 256)
        GTEST_SKIP() << "schoolbook reference too slow";
    std::mt19937_64 rng(44);
    auto a = randomPoly(n_, q_, rng);
    auto b = randomPoly(n_, q_, rng);
    auto expect = negacyclicMul(a, b, q_);

    table_->forward(a);
    table_->forward(b);
    std::vector<u64> c(n_);
    for (size_t i = 0; i < n_; ++i)
        c[i] = q_.mulMod(a[i], b[i]);
    table_->inverse(c);
    EXPECT_EQ(c, expect);
}

TEST_P(NttParamTest, MonomialShiftWrapsWithSign)
{
    // X^(n-1) * X = X^n = -1 in the negacyclic ring.
    std::vector<u64> a(n_, 0), b(n_, 0);
    a[n_ - 1] = 1;
    b[1] = 1;
    table_->forward(a);
    table_->forward(b);
    std::vector<u64> c(n_);
    for (size_t i = 0; i < n_; ++i)
        c[i] = q_.mulMod(a[i], b[i]);
    table_->inverse(c);
    EXPECT_EQ(c[0], q_.value() - 1);
    for (size_t i = 1; i < n_; ++i)
        EXPECT_EQ(c[i], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NttParamTest,
    ::testing::Combine(::testing::Values(16, 64, 256, 1024, 4096),
                       ::testing::Values(30, 45, 59)));

TEST(BitReverse, SmallCases)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b110, 3), 0b011u);
    EXPECT_EQ(bitReverse(5, 4), 0b1010u);
    for (u64 v = 0; v < 64; ++v)
        EXPECT_EQ(bitReverse(bitReverse(v, 6), 6), v);
}

} // namespace
} // namespace hydra
