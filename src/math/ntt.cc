#include "math/ntt.hh"

#include <bit>

#include "common/logging.hh"
#include "math/primes.hh"
#include "math/simd/simd.hh"

namespace hydra {

NttTable::NttTable(size_t n, Modulus q)
    : n_(n), q_(q)
{
    HYDRA_ASSERT(std::has_single_bit(n), "NTT length must be a power of 2");
    logN_ = std::countr_zero(n);
    HYDRA_ASSERT((q.value() - 1) % (2 * n) == 0, "q != 1 mod 2n");

    u64 psi = primitiveRoot2N(q, n);
    u64 psi_inv = q.invMod(psi);

    fwdW_.resize(n);
    fwdWShoup_.resize(n);
    invW_.resize(n);
    invWShoup_.resize(n);
    u64 fwd = 1;
    u64 inv = 1;
    for (size_t i = 0; i < n; ++i) {
        size_t r = bitReverse(i, logN_);
        ShoupMul sf(fwd, q);
        ShoupMul si(inv, q);
        fwdW_[r] = sf.value();
        fwdWShoup_[r] = sf.shoup();
        invW_[r] = si.value();
        invWShoup_[r] = si.shoup();
        fwd = q.mulMod(fwd, psi);
        inv = q.mulMod(inv, psi_inv);
    }
    ShoupMul ni(q.invMod(static_cast<u64>(n)), q);
    nInvW_ = ni.value();
    nInvWShoup_ = ni.shoup();
}

void
NttTable::forward(u64* a) const
{
    simd::kernels().nttForward(*this, a);
}

void
NttTable::inverse(u64* a) const
{
    simd::kernels().nttInverse(*this, a);
}

} // namespace hydra
