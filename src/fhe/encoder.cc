#include "fhe/encoder.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "math/ntt.hh"
#include "math/simd/simd.hh"

namespace hydra {

CkksEncoder::CkksEncoder(const CkksContext& ctx)
    : ctx_(ctx),
      slots_(ctx.slots()),
      m_(2 * ctx.n())
{
    rotGroup_.resize(slots_);
    size_t five = 1;
    for (size_t i = 0; i < slots_; ++i) {
        rotGroup_[i] = five;
        five = five * 5 % m_;
    }
    ksiPows_.resize(m_ + 1);
    for (size_t k = 0; k <= m_; ++k) {
        double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(m_);
        ksiPows_[k] = cplx(std::cos(angle), std::sin(angle));
    }
}

cplx
CkksEncoder::embeddingRoot(size_t j) const
{
    HYDRA_ASSERT(j < slots_, "slot index out of range");
    return ksiPows_[rotGroup_[j]];
}

void
CkksEncoder::fftSpecial(std::vector<cplx>& vals) const
{
    size_t n = vals.size();
    HYDRA_ASSERT(n == slots_, "fftSpecial length mismatch");
    int log_n = 0;
    while ((1u << log_n) < n)
        ++log_n;
    for (size_t i = 0; i < n; ++i) {
        size_t j = static_cast<size_t>(bitReverse(i, log_n));
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
    for (size_t len = 2; len <= n; len <<= 1)
        fftSpecialStage(vals, len);
}

void
CkksEncoder::fftSpecialStage(std::vector<cplx>& vals, size_t len) const
{
    size_t n = vals.size();
    for (size_t i = 0; i < n; i += len) {
        size_t lenh = len >> 1;
        size_t lenq = len << 2;
        for (size_t j = 0; j < lenh; ++j) {
            size_t idx = (rotGroup_[j] % lenq) * (m_ / lenq);
            cplx u = vals[i + j];
            cplx v = vals[i + j + lenh] * ksiPows_[idx];
            vals[i + j] = u + v;
            vals[i + j + lenh] = u - v;
        }
    }
}

void
CkksEncoder::fftSpecialInv(std::vector<cplx>& vals) const
{
    size_t n = vals.size();
    HYDRA_ASSERT(n == slots_, "fftSpecialInv length mismatch");
    for (size_t len = n; len >= 2; len >>= 1)
        fftSpecialInvStage(vals, len);
    int log_n = 0;
    while ((1u << log_n) < n)
        ++log_n;
    for (size_t i = 0; i < n; ++i) {
        size_t j = static_cast<size_t>(bitReverse(i, log_n));
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
    double inv = 1.0 / static_cast<double>(n);
    for (auto& v : vals)
        v *= inv;
}

void
CkksEncoder::fftSpecialInvStage(std::vector<cplx>& vals, size_t len) const
{
    size_t n = vals.size();
    for (size_t i = 0; i < n; i += len) {
        size_t lenh = len >> 1;
        size_t lenq = len << 2;
        for (size_t j = 0; j < lenh; ++j) {
            size_t idx = (lenq - rotGroup_[j] % lenq) % lenq * (m_ / lenq);
            cplx u = vals[i + j] + vals[i + j + lenh];
            cplx v = (vals[i + j] - vals[i + j + lenh]) * ksiPows_[idx];
            vals[i + j] = u;
            vals[i + j + lenh] = v;
        }
    }
}

Plaintext
CkksEncoder::encode(const std::vector<cplx>& values, double scale,
                    size_t n_limbs, bool over_qp) const
{
    HYDRA_ASSERT(values.size() <= slots_, "too many values to encode");
    HYDRA_ASSERT(scale > 0, "scale must be positive");
    std::vector<cplx> z(slots_, cplx(0, 0));
    std::copy(values.begin(), values.end(), z.begin());
    fftSpecialInv(z);

    std::vector<i64> coeffs(ctx_.n());
    for (size_t i = 0; i < slots_; ++i) {
        double re = z[i].real() * scale;
        double im = z[i].imag() * scale;
        if (std::abs(re) >= 9.0e18 || std::abs(im) >= 9.0e18)
            fatal("encode overflow: value * scale exceeds 63 bits");
        coeffs[i] = static_cast<i64>(std::llround(re));
        coeffs[i + slots_] = static_cast<i64>(std::llround(im));
    }
    RnsPoly p = RnsPoly::fromSigned(
        ctx_.basis(), n_limbs, over_qp ? ctx_.params().specialPrimes : 0,
        coeffs);
    p.toNtt();
    return Plaintext{std::move(p), scale};
}

Plaintext
CkksEncoder::encode(const std::vector<double>& values, double scale,
                    size_t n_limbs) const
{
    std::vector<cplx> z(values.size());
    for (size_t i = 0; i < values.size(); ++i)
        z[i] = cplx(values[i], 0.0);
    return encode(z, scale, n_limbs);
}

namespace {

/** round(x), refusing values past the signed 64-bit range. */
i64
roundConstant(double x)
{
    if (std::abs(x) >= 9.0e18)
        fatal("encodeConstant overflow");
    return static_cast<i64>(std::llround(x));
}

} // namespace

Plaintext
CkksEncoder::encodeConstant(cplx c, double scale, size_t n_limbs) const
{
    i64 re = roundConstant(c.real() * scale);
    i64 im = roundConstant(c.imag() * scale);
    const RnsPoly& iota = ctx_.iMonomialNtt();
    HYDRA_ASSERT(n_limbs >= 1 && n_limbs <= iota.nLimbs(),
                 "constant level out of range");
    RnsPoly p(ctx_.basis(), n_limbs, 0, true);
    size_t n = p.n();
    parallelFor(0, n_limbs, [&](size_t k) {
        const Modulus& m = p.mod(k);
        u64* dst = p.limbData(k);
        u64 r = m.reduceI64(re);
        if (im == 0) {
            std::fill(dst, dst + n, r);
            return;
        }
        std::memcpy(dst, iota.limbData(k), n * sizeof(u64));
        ShoupMul w(m.reduceI64(im), m);
        simd::kernels().mulScalarSpan(dst, n, w.value(), w.shoup(),
                                      m.value());
        if (r != 0)
            for (size_t j = 0; j < n; ++j)
                dst[j] = m.addMod(dst[j], r);
    });
    return Plaintext{std::move(p), scale};
}

std::vector<cplx>
CkksEncoder::decode(const Plaintext& pt) const
{
    HYDRA_ASSERT(pt.poly.nttForm(), "plaintexts are kept in NTT form");
    RnsPoly coeffs = pt.poly;
    coeffs.fromNtt();
    size_t count = coeffs.nLimbs();
    const RnsBasis& basis = *ctx_.basis();

    std::vector<cplx> z(slots_);
    std::vector<u64> residues(count);
    for (size_t i = 0; i < slots_; ++i) {
        for (size_t k = 0; k < count; ++k)
            residues[k] = coeffs.limb(k)[i];
        long double re = basis.composeCentered(residues, count);
        for (size_t k = 0; k < count; ++k)
            residues[k] = coeffs.limb(k)[i + slots_];
        long double im = basis.composeCentered(residues, count);
        z[i] = cplx(static_cast<double>(re / pt.scale),
                    static_cast<double>(im / pt.scale));
    }
    fftSpecial(z);
    return z;
}

} // namespace hydra
