#include "math/rns.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "math/simd/simd.hh"

namespace hydra {

BaseConverter::BaseConverter(const std::vector<Modulus>& mods,
                             size_t begin, size_t end)
    : begin_(begin), end_(end), mods_(mods)
{
    HYDRA_ASSERT(begin < end && end <= mods.size(), "bad converter group");
    size_t k = size();
    // (P_B / p_i) mod m for group member i.
    auto hatMod = [&](size_t i, const Modulus& m) {
        u64 hat = 1;
        for (size_t j = begin_; j < end_; ++j)
            if (j != begin_ + i)
                hat = m.mulMod(hat, m.reduceU64(mods_[j].value()));
        return hat;
    };
    invHat_.resize(k);
    half_.resize(k);
    for (size_t i = 0; i < k; ++i) {
        const Modulus& pi = mods_[begin_ + i];
        invHat_[i] = ShoupMul(pi.invMod(hatMod(i, pi)), pi);
        half_[i] = pi.value() / 2;
    }

    size_t total = mods_.size();
    hat_.assign(total, std::vector<u64>(k));
    hatShoup_.assign(total, std::vector<u64>(k));
    offset_.assign(total, 0);
    fits52_.assign(total, false);
    prodInv_.assign(total, ShoupMul());
    bool sources52 = std::all_of(
        mods_.begin() + begin_, mods_.begin() + end_,
        [](const Modulus& p) { return simd::fits52(p.value()); });
    for (size_t t = 0; t < total; ++t) {
        const Modulus& mt = mods_[t];
        fits52_[t] = sources52 && simd::fits52(mt.value());
        u64 shift = 0; // sum_i h_i (P_B/p_i) mod t
        for (size_t i = 0; i < k; ++i) {
            ShoupMul w(hatMod(i, mt), mt);
            hat_[t][i] = w.value();
            hatShoup_[t][i] = w.shoup();
            shift = mt.addMod(shift,
                              mt.mulMod(mt.reduceU64(half_[i]), w.value()));
        }
        offset_[t] = mt.negMod(shift);
        if (t < begin_ || t >= end_) {
            u64 prod = 1;
            for (size_t j = begin_; j < end_; ++j)
                prod = mt.mulMod(prod, mt.reduceU64(mods_[j].value()));
            prodInv_[t] = ShoupMul(mt.invMod(prod), mt);
        }
    }
}

void
BaseConverter::prepareSource(u64* w, const u64* x, size_t i,
                             size_t n) const
{
    const Modulus& p = mods_[begin_ + i];
    if (w != x)
        std::memcpy(w, x, n * sizeof(u64));
    if (size() > 1) {
        const ShoupMul& s = invHat_[i];
        simd::kernels().mulScalarSpan(w, n, s.value(), s.shoup(),
                                      p.value());
    }
    // Shift by floor(p/2): the row subtracts it back, centering w.
    u64 h = half_[i];
    u64 q = p.value();
    for (size_t j = 0; j < n; ++j) {
        u64 v = w[j] + h;
        w[j] = v >= q ? v - q : v;
    }
}

void
BaseConverter::convert(u64* dst, const u64* const* w, size_t target,
                       size_t n) const
{
    HYDRA_ASSERT(target < begin_ || target >= end_,
                 "conversion target inside the source group");
    simd::BaseConvRow row{size(), mods_[target].value(), offset_[target],
                          hat_[target].data(), hatShoup_[target].data(),
                          fits52_[target]};
    simd::kernels().baseConvSpan(dst, w, n, row);
}

RnsBasis::RnsBasis(size_t n, std::vector<u64> q_primes,
                   std::vector<u64> special_primes)
    : n_(n), qCount_(q_primes.size())
{
    HYDRA_ASSERT(!q_primes.empty(), "empty modulus chain");
    HYDRA_ASSERT(!special_primes.empty(), "no special prime");
    for (u64 q : q_primes)
        mods_.emplace_back(q);
    for (u64 p : special_primes)
        mods_.emplace_back(p);

    for (const auto& m : mods_)
        ntts_.push_back(std::make_unique<NttTable>(n_, m));

    size_t total = mods_.size();
    inv_.assign(total, std::vector<u64>(total, 0));
    for (size_t l = 0; l < total; ++l) {
        for (size_t j = 0; j < total; ++j) {
            if (l == j)
                continue;
            u64 ql = mods_[l].value() % mods_[j].value();
            inv_[l][j] = mods_[j].invMod(ql);
        }
    }

    garnerInv_.assign(total, 0);
    for (size_t i = 1; i < total; ++i) {
        u64 prod = 1;
        const Modulus& qi = mods_[i];
        for (size_t j = 0; j < i; ++j)
            prod = qi.mulMod(prod, qi.reduceU64(mods_[j].value()));
        garnerInv_[i] = qi.invMod(prod);
    }

    // Every group a keyswitch or rescale converts out of: each single
    // prime (Rescale, one-prime digits), each prefix of each alpha-wide
    // digit (the last digit at a level may be partial), and the special
    // primes (ModDown).
    auto add = [&](size_t b, size_t e) {
        converters_.try_emplace({b, e}, mods_, b, e);
    };
    for (size_t k = 0; k < total; ++k)
        add(k, k + 1);
    size_t alpha = specialCount();
    for (size_t b = 0; b < qCount_; b += alpha)
        for (size_t e = b + 2; e <= std::min(b + alpha, qCount_); ++e)
            add(b, e);
    add(qCount_, total);
}

const BaseConverter&
RnsBasis::converter(size_t begin, size_t end) const
{
    auto it = converters_.find({begin, end});
    HYDRA_ASSERT(it != converters_.end(), "no converter for this group");
    return it->second;
}

BigUInt
RnsBasis::productQ(size_t count) const
{
    HYDRA_ASSERT(count >= 1 && count <= totalCount(), "bad limb count");
    BigUInt prod(1);
    for (size_t i = 0; i < count; ++i)
        prod.mulU64(mods_[i].value());
    return prod;
}

long double
RnsBasis::composeCentered(const std::vector<u64>& residues,
                          size_t count) const
{
    HYDRA_ASSERT(residues.size() >= count && count >= 1, "bad residues");
    // Garner mixed-radix digits: x = d_0 + d_1 q_0 + d_2 q_0 q_1 + ...
    std::vector<u64> digits(count);
    digits[0] = residues[0];
    for (size_t i = 1; i < count; ++i) {
        const Modulus& qi = mods_[i];
        // t = (x_i - (d_0 + d_1 q_0 + ...)) * garnerInv_i mod q_i
        u64 acc = qi.reduceU64(digits[i - 1]);
        for (size_t j = i - 1; j-- > 0;) {
            acc = qi.mulMod(acc, qi.reduceU64(mods_[j].value()));
            acc = qi.addMod(acc, qi.reduceU64(digits[j]));
        }
        u64 t = qi.subMod(residues[i] % qi.value(), acc);
        digits[i] = qi.mulMod(t, garnerInv_[i]);
    }

    // Compose big integer via Horner over the mixed radix.
    BigUInt x(digits[count - 1]);
    for (size_t i = count - 1; i-- > 0;)
        x.mulAdd(mods_[i].value(), digits[i]);

    // Center against Q.
    BigUInt q_prod = productQ(count);
    BigUInt twice = x;
    twice.mulU64(2);
    if (twice.compare(q_prod) > 0) {
        BigUInt neg = q_prod;
        neg.sub(x);
        return -neg.toLongDouble();
    }
    return x.toLongDouble();
}

} // namespace hydra
