#include "fhe/encryptor.hh"

#include "common/logging.hh"

namespace hydra {

Encryptor::Encryptor(const CkksContext& ctx, PublicKey pk, uint64_t seed)
    : ctx_(ctx), pk_(std::move(pk)), rng_(seed)
{
}

Ciphertext
Encryptor::encrypt(const Plaintext& pt)
{
    size_t levels = pt.poly.nLimbs();
    HYDRA_ASSERT(pt.poly.nttForm() && pt.poly.specialCount() == 0,
                 "plaintexts are NTT-form polynomials over Q");

    // u ternary; e0, e1 small.
    std::vector<i64> uv(ctx_.n()), e0v(ctx_.n()), e1v(ctx_.n());
    for (size_t i = 0; i < ctx_.n(); ++i) {
        uv[i] = rng_.ternary();
        e0v[i] = rng_.smallError(ctx_.params().errorStd);
        e1v[i] = rng_.smallError(ctx_.params().errorStd);
    }
    RnsPoly u = RnsPoly::fromSigned(ctx_.basis(), levels, 0, uv);
    u.toNtt();
    RnsPoly e0 = RnsPoly::fromSigned(ctx_.basis(), levels, 0, e0v);
    e0.toNtt();
    RnsPoly e1 = RnsPoly::fromSigned(ctx_.basis(), levels, 0, e1v);
    e1.toNtt();

    // Restrict the (full-level) public key to the plaintext's limbs.
    Ciphertext ct;
    ct.c0 = RnsPoly(ctx_.basis(), levels, 0, true);
    ct.c1 = RnsPoly(ctx_.basis(), levels, 0, true);
    ct.scale = pt.scale;
    for (size_t k = 0; k < levels; ++k) {
        const Modulus& mod = ct.c0.mod(k);
        const auto bk = pk_.b.limb(k);
        const auto ak = pk_.a.limb(k);
        const auto uk = u.limb(k);
        const auto c0k = ct.c0.limb(k);
        const auto c1k = ct.c1.limb(k);
        const auto e0k = e0.limb(k);
        const auto e1k = e1.limb(k);
        const auto mk = pt.poly.limb(k);
        for (size_t i = 0; i < c0k.size(); ++i) {
            c0k[i] = mod.addMod(mod.addMod(mod.mulMod(bk[i], uk[i]),
                                           e0k[i]),
                                mk[i]);
            c1k[i] = mod.addMod(mod.mulMod(ak[i], uk[i]), e1k[i]);
        }
    }
    return ct;
}

Decryptor::Decryptor(const CkksContext& ctx, SecretKey sk)
    : ctx_(ctx), sk_(std::move(sk))
{
}

Plaintext
Decryptor::decrypt(const Ciphertext& ct)
{
    HYDRA_ASSERT(ct.c0.nttForm() && ct.c1.nttForm(),
                 "ciphertexts are kept in NTT form");
    size_t levels = ct.level();
    RnsPoly m(ctx_.basis(), levels, 0, true);
    for (size_t k = 0; k < levels; ++k) {
        const Modulus& mod = m.mod(k);
        const auto c0k = ct.c0.limb(k);
        const auto c1k = ct.c1.limb(k);
        const auto sk_k = sk_.s.limb(k);
        const auto mk = m.limb(k);
        for (size_t i = 0; i < mk.size(); ++i)
            mk[i] = mod.addMod(c0k[i], mod.mulMod(c1k[i], sk_k[i]));
    }
    return Plaintext{std::move(m), ct.scale};
}

} // namespace hydra
