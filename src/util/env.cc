#include "env.hh"

#include <cstdlib>

#include "string_utils.hh"

namespace tlat::util
{

// The tree's only raw environment read (env-read lint rule): every
// configuration knob resolves through this translation unit.
std::optional<std::string>
envString(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return std::nullopt;
    return std::string(value);
}

std::optional<std::uint64_t>
envUnsigned(const char *name)
{
    const auto text = envString(name);
    return text ? parseSize(*text) : std::nullopt;
}

bool
envFlag(const char *name)
{
    const auto text = envString(name);
    if (!text)
        return false;
    return *text != "0" && *text != "OFF";
}

} // namespace tlat::util
