/**
 * @file
 * Bootstrap explorer: (1) run a REAL CKKS bootstrap with the functional
 * library at laptop scale, print the Eq. 1 DftPlans its C2S/S2C run,
 * the keyswitch shape (alpha, dnum) with the key budget, and the
 * keyswitches it spends, and verify the refreshed message (exit
 * status 1 when the error reaches 2e-3); (2) sweep the Eq. 1 Radix/bs
 * space for a chosen slot count and card count and print the cost
 * surface with its optimum (paper Table V methodology).
 */

#include <cmath>
#include <cstdio>

#include "baselines/prototypes.hh"
#include "common/table.hh"
#include "fhe/bootstrap.hh"
#include "fhe/encryptor.hh"
#include "fhe/keygen.hh"
#include "model/dft_model.hh"

using namespace hydra;

int
main()
{
    // --- 1. Real bootstrap -------------------------------------------
    CkksParams params = CkksParams::bootstrapTest();
    params.n = 1 << 8;
    CkksContext ctx(params);
    std::printf("Functional bootstrap at %s\n",
                params.describe().c_str());

    CkksEncoder encoder(ctx);
    Bootstrapper boot(ctx, encoder);
    KeyGenerator keygen(ctx);
    SecretKey sk = keygen.secretKey();
    PublicKey pk = keygen.publicKey(sk);
    EvalKey relin = keygen.relinKey(sk);
    GaloisKeys galois = keygen.galoisKeys(sk, boot.requiredRotations());
    Encryptor encryptor(ctx, pk);
    Decryptor decryptor(ctx, sk);
    Evaluator eval(ctx, encoder);
    eval.setRelinKey(&relin);
    eval.setGaloisKeys(&galois);

    std::vector<double> msg(ctx.slots());
    for (size_t i = 0; i < msg.size(); ++i)
        msg[i] = 0.009 * std::sin(0.37 * static_cast<double>(i));
    Ciphertext exhausted = encryptor.encrypt(
        encoder.encode(msg, params.scale(), /*n_limbs=*/1));
    std::printf("input level: %zu limb(s)\n", exhausted.level());

    std::printf("C2S plan %s, S2C plan %s, %zu rotation keys\n",
                boot.coeffToSlotPlan().describe().c_str(),
                boot.slotToCoeffPlan().describe().c_str(),
                boot.requiredRotations().size());
    std::printf("keyswitch: alpha = %zu special primes, dnum = %zu "
                "digits; %.2f MB per key, %zu keys (relin + Galois) "
                "= %.2f MB\n",
                params.specialPrimes, params.dnum(), relin.bytes() / 1e6,
                galois.keys.size() + 1,
                (relin.bytes() + galois.bytes()) / 1e6);

    OpCounter counter;
    eval.setCounter(&counter);
    Ciphertext fresh = boot.bootstrap(eval, exhausted);
    eval.setCounter(nullptr);
    auto got = encoder.decode(decryptor.decrypt(fresh));
    double worst = 0;
    for (size_t i = 0; i < msg.size(); ++i)
        worst = std::max(worst, std::abs(got[i].real() - msg[i]));
    std::printf("keyswitches per bootstrap: %llu (%s)\n",
                static_cast<unsigned long long>(
                    counter.count(HeOpType::KeySwitch)),
                counter.summary().c_str());
    std::printf("refreshed level: %zu limbs, max error %.2e "
                "(pipeline depth %zu)\n\n",
                fresh.level(), worst, boot.depth());
    constexpr double kErrorBound = 2e-3;
    if (!(worst < kErrorBound)) {
        std::fprintf(stderr, "bootstrap error %.2e >= %.0e\n", worst,
                     kErrorBound);
        return 1;
    }

    // --- 2. Eq. 1 cost surface ---------------------------------------
    size_t log_slots = 15;
    OpCostModel cost(FpgaParams{}, size_t{1} << 16, 4);
    for (size_t cards : {1, 8, 64}) {
        ClusterConfig cfg{cards <= 8 ? 1 : cards / 8,
                          cards <= 8 ? cards : 8};
        SwitchedNetwork net(NetParams{}, cfg);
        DftOpTimes t = DftOpTimes::fromCostModel(cost, net, 18);

        TextTable tab(strf("Single DFT level, %zu card(s), logSlots %zu "
                           "(ms; * = per-radix optimum)",
                           cards, log_slots));
        std::vector<std::string> hdr = {"Radix\\bs"};
        for (size_t bs = 1; bs <= 16; bs <<= 1)
            hdr.push_back(std::to_string(bs));
        tab.header(hdr);
        for (size_t lg = 3; lg <= 7; ++lg) {
            size_t radix = size_t{1} << lg;
            double best = 1e30;
            size_t best_bs = 1;
            for (size_t bs = 1; bs <= 16; bs <<= 1) {
                double v = dftLevelTime({radix, bs}, cards, t);
                if (v < best) {
                    best = v;
                    best_bs = bs;
                }
            }
            std::vector<std::string> row = {std::to_string(radix)};
            for (size_t bs = 1; bs <= 16; bs <<= 1) {
                double v = dftLevelTime({radix, bs}, cards, t) * 1e3;
                row.push_back(fmtF(v, 2) + (bs == best_bs ? "*" : ""));
            }
            tab.addRow(row);
        }
        tab.print();

        DftPlan plan = optimizeDftPlan(3, log_slots, cards, t);
        std::printf("optimal 3-level plan: %s -> %.2f ms\n\n",
                    plan.describe().c_str(),
                    dftTime(plan, cards, t) * 1e3);
    }
    return 0;
}
