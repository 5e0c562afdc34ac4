/**
 * @file
 * FNV-1a result digests.
 *
 * resultDigest and networkResultDigest fold every statistic of a run,
 * field by field, into one 64-bit value; two runs are bit-identical
 * exactly when their digests are.  The fold is order-sensitive and
 * canonicalizes doubles, so -0.0 and 0.0 hash alike.
 */

#ifndef MMR_BASE_FNV1A_HH
#define MMR_BASE_FNV1A_HH

#include <cstdint>
#include <cstring>

namespace mmr
{

class Fnv1a
{
  public:
    void
    addU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    addDouble(double v)
    {
        if (v == 0.0)
            v = 0.0; // merge -0.0 and 0.0 bit patterns
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        addU64(bits);
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

} // namespace mmr

#endif // MMR_BASE_FNV1A_HH
