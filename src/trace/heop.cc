#include "trace/heop.hh"

#include "common/logging.hh"

namespace hydra {

const char*
heOpName(HeOpType t)
{
    switch (t) {
      case HeOpType::HAdd: return "HAdd";
      case HeOpType::PMult: return "PMult";
      case HeOpType::CMult: return "CMult";
      case HeOpType::Rescale: return "Rescale";
      case HeOpType::Rotate: return "Rotate";
      case HeOpType::Conjugate: return "Conjugate";
      case HeOpType::KeySwitch: return "KeySwitch";
      case HeOpType::ModRaise: return "ModRaise";
      default: break;
    }
    panic("unknown HeOpType %d", static_cast<int>(t));
}

std::string
OpCounter::summary() const
{
    std::string out;
    for (size_t i = 0; i < kNumHeOpTypes; ++i) {
        uint64_t c = count(static_cast<HeOpType>(i));
        if (!c)
            continue;
        if (!out.empty())
            out += ", ";
        out += strf("%s=%llu", heOpName(static_cast<HeOpType>(i)),
                    static_cast<unsigned long long>(c));
    }
    return out.empty() ? "none" : out;
}

} // namespace hydra
