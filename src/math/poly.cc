#include "math/poly.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "math/ntt.hh"
#include "math/simd/simd.hh"

namespace hydra {

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                 size_t n_special, bool ntt_form, Uninit)
    : basis_(std::move(basis)),
      nLimbs_(n_limbs),
      nSpecial_(n_special),
      nttForm_(ntt_form),
      n_(basis_->n()),
      limbCount_(n_limbs + n_special)
{
    HYDRA_ASSERT(nLimbs_ >= 1 && nLimbs_ <= basis_->qCount() &&
                     nSpecial_ <= basis_->specialCount(),
                 "limb count out of range");
    buf_ = BufferPool::global().acquire(limbCount_ * n_);
}

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                 size_t n_special, bool ntt_form)
    : RnsPoly(std::move(basis), n_limbs, n_special, ntt_form, Uninit{})
{
    setZero();
}

RnsPoly::RnsPoly(const RnsPoly& other)
    : basis_(other.basis_),
      nLimbs_(other.nLimbs_),
      nSpecial_(other.nSpecial_),
      nttForm_(other.nttForm_),
      n_(other.n_),
      limbCount_(other.limbCount_)
{
    if (!basis_)
        return;
    buf_ = BufferPool::global().acquire(limbCount_ * n_);
    std::memcpy(buf_.data(), other.buf_.data(),
                limbCount_ * n_ * sizeof(u64));
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& other)
{
    if (this == &other)
        return *this;
    if (other.basis_) {
        // Reuse our buffer when it is exactly the right size; otherwise
        // recycle it through the pool.
        size_t words = other.limbCount_ * other.n_;
        if (!buf_.valid() || buf_.words() != words)
            buf_ = BufferPool::global().acquire(words);
        std::memcpy(buf_.data(), other.buf_.data(), words * sizeof(u64));
    } else {
        buf_.reset();
    }
    basis_ = other.basis_;
    nLimbs_ = other.nLimbs_;
    nSpecial_ = other.nSpecial_;
    nttForm_ = other.nttForm_;
    n_ = other.n_;
    limbCount_ = other.limbCount_;
    return *this;
}

RnsPoly
RnsPoly::fromSigned(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                    size_t n_special, const i64* coeffs)
{
    RnsPoly p(std::move(basis), n_limbs, n_special, false, Uninit{});
    for (size_t k = 0; k < p.limbCount(); ++k)
        simd::kernels().reduceCenteredSpan(p.limbData(k), coeffs, p.n_,
                                           p.mod(k));
    return p;
}

RnsPoly
RnsPoly::fromSigned(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
                    size_t n_special, const std::vector<i64>& coeffs)
{
    HYDRA_ASSERT(coeffs.size() == basis->n(), "coefficient count mismatch");
    return fromSigned(std::move(basis), n_limbs, n_special,
                      coeffs.data());
}

void
RnsPoly::copyLimbFrom(size_t k, const RnsPoly& src, size_t src_k)
{
    HYDRA_ASSERT(k < limbCount_ && src_k < src.limbCount_ && n_ == src.n_,
                 "limb copy out of range");
    std::memcpy(limbData(k), src.limbData(src_k), n_ * sizeof(u64));
}

void
RnsPoly::setZero()
{
    std::fill(buf_.data(), buf_.data() + limbCount_ * n_, u64{0});
}

bool
RnsPoly::sameShape(const RnsPoly& other) const
{
    return basis_ == other.basis_ && nLimbs_ == other.nLimbs_ &&
           nSpecial_ == other.nSpecial_ && nttForm_ == other.nttForm_;
}

void
RnsPoly::add(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other), "shape mismatch in add");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().addSpan(limbData(k), other.limbData(k), n_,
                                mod(k).value());
    });
}

void
RnsPoly::sub(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other), "shape mismatch in sub");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().subSpan(limbData(k), other.limbData(k), n_,
                                mod(k).value());
    });
}

void
RnsPoly::negate()
{
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().negSpan(limbData(k), n_, mod(k).value());
    });
}

void
RnsPoly::mulPointwise(const RnsPoly& other)
{
    HYDRA_ASSERT(sameShape(other) && nttForm_,
                 "mulPointwise requires matching NTT-form operands");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().mulSpan(limbData(k), other.limbData(k), n_,
                                mod(k));
    });
}

void
RnsPoly::addMulPointwise(const RnsPoly& a, const RnsPoly& b)
{
    HYDRA_ASSERT(sameShape(a) && sameShape(b) && nttForm_,
                 "addMulPointwise requires matching NTT-form operands");
    parallelFor(0, limbCount_, [&](size_t k) {
        simd::kernels().macSpan(limbData(k), a.limbData(k),
                                b.limbData(k), n_, mod(k));
    });
}

void
RnsPoly::mulScalarPerLimb(const std::vector<u64>& a)
{
    HYDRA_ASSERT(a.size() == limbCount_, "per-limb scalar count");
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        ShoupMul w(m.reduceU64(a[k]), m);
        simd::kernels().mulScalarSpan(limbData(k), n_, w.value(),
                                      w.shoup(), m.value());
    });
}

void
RnsPoly::toNtt()
{
    if (nttForm_)
        return;
    parallelFor(0, limbCount_, [&](size_t k) {
        basis_->ntt(basisIndex(k)).forward(limbData(k));
    });
    nttForm_ = true;
}

void
RnsPoly::fromNtt()
{
    if (!nttForm_)
        return;
    parallelFor(0, limbCount_, [&](size_t k) {
        basis_->ntt(basisIndex(k)).inverse(limbData(k));
    });
    nttForm_ = false;
}

RnsPoly
RnsPoly::automorphism(u64 galois) const
{
    HYDRA_ASSERT(!nttForm_, "automorphism requires coefficient domain");
    size_t nn = n_;
    u64 two_n = 2 * nn;
    HYDRA_ASSERT((galois & 1) == 1 && galois < two_n, "bad Galois element");

    RnsPoly out(basis_, nLimbs_, nSpecial_, false, Uninit{});
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        const u64* src = limbData(k);
        u64* dst = out.limbData(k);
        for (size_t i = 0; i < nn; ++i) {
            u64 j = (static_cast<u64>(i) * galois) % two_n;
            if (j < nn)
                dst[j] = src[i];
            else
                dst[j - nn] = m.negMod(src[i]);
        }
    });
    return out;
}

std::vector<size_t>
RnsPoly::nttAutomorphismMap(size_t n, u64 galois)
{
    // The forward NTT emits evaluations at psi^(2*brv(j)+1).  Composing
    // with X -> X^g moves slot j to the evaluation at exponent
    // g*(2*brv(j)+1) mod 2n, whose home slot is recovered by the
    // inverse bit-reversal.
    int log_n = std::countr_zero(n);
    u64 two_n = 2 * static_cast<u64>(n);
    std::vector<size_t> map(n);
    for (size_t j = 0; j < n; ++j) {
        u64 e = 2 * bitReverse(static_cast<u64>(j), log_n) + 1;
        u64 e_g = (e * galois) % two_n;
        map[j] = static_cast<size_t>(bitReverse((e_g - 1) / 2, log_n));
    }
    return map;
}

const std::vector<size_t>&
RnsPoly::nttAutomorphismMapCached(size_t n, u64 galois)
{
    // One table per log2(n), one entry per odd Galois element g < 2n at
    // index g/2.  Entries are published once with release stores and
    // never change, so concurrent rotations read them without a lock;
    // only building a table or an entry takes the mutex.  Both live for
    // the rest of the process.
    using Entry = std::atomic<const std::vector<size_t>*>;
    static std::array<std::atomic<Entry*>, 64> tables{};
    static std::mutex build_mutex;
    HYDRA_ASSERT(std::has_single_bit(n) && (galois & 1) == 1 &&
                     galois < 2 * static_cast<u64>(n),
                 "bad Galois element");
    std::atomic<Entry*>& table_ref = tables[std::countr_zero(n)];
    size_t idx = static_cast<size_t>(galois / 2);
    if (Entry* table = table_ref.load(std::memory_order_acquire))
        if (const auto* map = table[idx].load(std::memory_order_acquire))
            return *map;

    std::lock_guard<std::mutex> lock(build_mutex);
    Entry* table = table_ref.load(std::memory_order_relaxed);
    if (!table) {
        table = new Entry[n]();
        table_ref.store(table, std::memory_order_release);
    }
    const std::vector<size_t>* map =
        table[idx].load(std::memory_order_relaxed);
    if (!map) {
        map = new std::vector<size_t>(nttAutomorphismMap(n, galois));
        table[idx].store(map, std::memory_order_release);
    }
    return *map;
}

RnsPoly
RnsPoly::automorphismNtt(u64 galois) const
{
    HYDRA_ASSERT(nttForm_, "automorphismNtt requires NTT domain");
    const std::vector<size_t>& map = nttAutomorphismMapCached(n_, galois);
    RnsPoly out(basis_, nLimbs_, nSpecial_, true, Uninit{});
    parallelFor(0, limbCount_, [&](size_t k) {
        const u64* src = limbData(k);
        u64* dst = out.limbData(k);
        for (size_t j = 0; j < n_; ++j)
            dst[j] = src[map[j]];
    });
    return out;
}

void
RnsPoly::addAutomorphismNtt(const RnsPoly& src, u64 galois)
{
    HYDRA_ASSERT(sameShape(src) && nttForm_,
                 "addAutomorphismNtt requires matching NTT-form operands");
    const std::vector<size_t>& map = nttAutomorphismMapCached(n_, galois);
    parallelFor(0, limbCount_, [&](size_t k) {
        const Modulus& m = mod(k);
        const u64* s = src.limbData(k);
        u64* dst = limbData(k);
        for (size_t j = 0; j < n_; ++j)
            dst[j] = m.addMod(dst[j], s[map[j]]);
    });
}

void
RnsPoly::divideRoundByLast(size_t count)
{
    HYDRA_ASSERT(count >= 1 && count < limbCount_ &&
                     (count == 1 || count == nSpecial_),
                 "divide by one limb or by all special limbs");
    size_t first = limbCount_ - count;
    size_t first_basis = basisIndex(first);
    const BaseConverter& conv =
        basis_->converter(first_basis, first_basis + count);
    size_t nn = n_;

    // The dropped limbs in coefficient domain, prepared as sources of
    // the centered base conversion.
    PoolBuffer scratch = BufferPool::global().acquire(count * nn);
    std::vector<const u64*> y(count);
    for (size_t i = 0; i < count; ++i)
        y[i] = scratch.data() + i * nn;
    parallelFor(0, count, [&](size_t i) {
        u64* yi = scratch.data() + i * nn;
        std::memcpy(yi, limbData(first + i), nn * sizeof(u64));
        if (nttForm_)
            basis_->ntt(first_basis + i).inverse(yi);
        conv.prepareSource(yi, yi, i, nn);
    });

    parallelFor(0, first, [&](size_t k) {
        size_t kb = basisIndex(k);
        const Modulus& m = basis_->mod(kb);
        const ShoupMul& inv = conv.prodInv(kb);
        // Convert the remainder x mod M into this limb's modulus, NTT
        // it when needed, then fold in (limb - c) * M^-1 fused.
        PoolBuffer cb = BufferPool::global().acquire(nn);
        u64* c = cb.data();
        conv.convert(c, y.data(), kb, nn);
        if (nttForm_)
            basis_->ntt(kb).forward(c);
        simd::kernels().subMulScalarSpan(limbData(k), c, nn, inv.value(),
                                         inv.shoup(), m.value());
    });

    for (size_t i = 0; i < count; ++i)
        dropLast();
}

std::vector<RnsPoly>
RnsPoly::modUp() const
{
    HYDRA_ASSERT(nttForm_ && nSpecial_ == 0,
                 "ModUp wants an NTT-form polynomial over Q");
    size_t levels = nLimbs_;
    size_t alpha = basis_->specialCount();
    size_t digits = (levels + alpha - 1) / alpha;
    size_t width = levels + alpha; // limbs of one extended digit
    size_t nn = n_;

    std::vector<const BaseConverter*> conv(digits);
    for (size_t j = 0; j < digits; ++j)
        conv[j] = &basis_->converter(
            j * alpha, std::min((j + 1) * alpha, levels));

    // Every chain limb in coefficient domain, prepared as a source of
    // its digit's conversion.
    PoolBuffer scratch = BufferPool::global().acquire(levels * nn);
    std::vector<const u64*> y(levels);
    for (size_t k = 0; k < levels; ++k)
        y[k] = scratch.data() + k * nn;
    parallelFor(0, levels, [&](size_t k) {
        u64* yk = scratch.data() + k * nn;
        std::memcpy(yk, limbData(k), nn * sizeof(u64));
        basis_->ntt(k).inverse(yk);
        conv[k / alpha]->prepareSource(yk, yk, k % alpha, nn);
    });

    // One job per (digit, output limb): a copy for the digit's own
    // limbs, a conversion plus forward NTT for every other limb.
    std::vector<RnsPoly> out;
    out.reserve(digits);
    for (size_t j = 0; j < digits; ++j)
        out.push_back(RnsPoly(basis_, levels, alpha, true, Uninit{}));
    parallelFor(0, digits * width, [&](size_t job) {
        size_t j = job / width;
        size_t kpos = job % width;
        RnsPoly& dig = out[j];
        const BaseConverter& cv = *conv[j];
        if (kpos >= cv.begin() && kpos < cv.end()) {
            dig.copyLimbFrom(kpos, *this, kpos);
            return;
        }
        size_t kb = dig.basisIndex(kpos);
        u64* dst = dig.limbData(kpos);
        cv.convert(dst, y.data() + cv.begin(), kb, nn);
        basis_->ntt(kb).forward(dst);
    });
    return out;
}

void
RnsPoly::dropLast()
{
    HYDRA_ASSERT(limbCount_ >= 2, "cannot drop the only limb");
    // The flat buffer keeps its original capacity (it returns to its
    // size bucket when released); only the live-limb count shrinks.
    --limbCount_;
    if (nSpecial_ > 0)
        --nSpecial_;
    else
        --nLimbs_;
}

} // namespace hydra
