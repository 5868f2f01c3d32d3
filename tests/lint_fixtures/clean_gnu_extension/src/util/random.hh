// Fixture: must lint CLEAN — src/util/random.hh is sanctioned for its
// __extension__-marked __int128 multiply.
#include <cstdint>

namespace fixture
{

inline std::uint64_t
mulHigh(std::uint64_t a, std::uint64_t b)
{
    __extension__ using Uint128 = unsigned __int128;
    return static_cast<std::uint64_t>(
        (static_cast<Uint128>(a) * b) >> 64);
}

} // namespace fixture
