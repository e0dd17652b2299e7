#include "core/brhint.hh"

#include <sstream>

#include "util/bits.hh"
#include "util/logging.hh"

namespace whisper
{

uint64_t
BrHint::encode() const
{
    whisper_assert(historyIdx < 16);
    whisper_assert(formula < (1u << 15));
    whisper_assert(static_cast<uint8_t>(bias) < 4);
    whisper_assert(pcPointer < (1u << 12));
    uint64_t bits = historyIdx;
    bits |= static_cast<uint64_t>(formula) << 4;
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(bias)) << 19;
    bits |= static_cast<uint64_t>(pcPointer) << 21;
    return bits;
}

BrHint
BrHint::decode(uint64_t bits)
{
    whisper_assert(isValidEncoding(bits), "invalid brhint encoding");
    BrHint h;
    h.historyIdx = static_cast<uint8_t>(bitsOf(bits, 0, 4));
    h.formula = static_cast<uint16_t>(bitsOf(bits, 4, 15));
    h.bias = static_cast<HintBias>(bitsOf(bits, 19, 2));
    h.pcPointer = static_cast<uint16_t>(bitsOf(bits, 21, 12));
    return h;
}

bool
BrHint::isValidEncoding(uint64_t bits)
{
    return bits < (1ULL << kEncodedBits) && bitsOf(bits, 19, 2) < 3;
}

uint16_t
BrHint::pcPointerFor(uint64_t branchPc)
{
    return static_cast<uint16_t>((branchPc >> 1) & maskBits(12));
}

std::string
BrHint::toString() const
{
    std::ostringstream os;
    os << "brhint{len#" << static_cast<int>(historyIdx) << ", f=0x"
       << std::hex << formula << std::dec << ", bias=";
    switch (bias) {
      case HintBias::Formula:
        os << "formula";
        break;
      case HintBias::AlwaysTaken:
        os << "always";
        break;
      case HintBias::NeverTaken:
        os << "never";
        break;
    }
    os << ", pc=0x" << std::hex << pcPointer << std::dec << "}";
    return os.str();
}

} // namespace whisper
