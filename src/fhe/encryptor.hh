/**
 * @file
 * Encryption and decryption.
 */

#ifndef HYDRA_FHE_ENCRYPTOR_HH
#define HYDRA_FHE_ENCRYPTOR_HH

#include "common/rng.hh"
#include "fhe/context.hh"
#include "fhe/encoder.hh"
#include "fhe/keys.hh"

namespace hydra {

/** Public- and secret-key encryption of plaintexts. */
class Encryptor
{
  public:
    Encryptor(const CkksContext& ctx, PublicKey pk, uint64_t seed = 1);

    /** RLWE public-key encryption of an encoded plaintext. */
    Ciphertext encrypt(const Plaintext& pt);

  private:
    const CkksContext& ctx_;
    PublicKey pk_;
    Rng rng_;
};

/** Decryption with the secret key. */
class Decryptor
{
  public:
    Decryptor(const CkksContext& ctx, SecretKey sk);

    /** Decrypt to an encoded plaintext (NTT form). */
    Plaintext decrypt(const Ciphertext& ct);

  private:
    const CkksContext& ctx_;
    SecretKey sk_;
};

} // namespace hydra

#endif // HYDRA_FHE_ENCRYPTOR_HH
