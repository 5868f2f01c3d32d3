#include "string_utils.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace tlat
{

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string &text, char delimiter)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == delimiter) {
            fields.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

std::vector<std::string>
splitTopLevel(const std::string &text, char delimiter)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    int depth = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || (text[i] == delimiter && depth == 0)) {
            fields.push_back(text.substr(start, i - start));
            start = i + 1;
        } else if (text[i] == '(') {
            ++depth;
        } else if (text[i] == ')') {
            --depth;
        }
    }
    return fields;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
toUpper(const std::string &text)
{
    std::string result = text;
    for (char &c : result)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return result;
}

std::string
toLower(const std::string &text)
{
    std::string result = text;
    for (char &c : result)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return result;
}

std::optional<std::uint64_t>
parseSize(const std::string &text)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::string t = trim(text);
    if (t.empty())
        return std::nullopt;

    const std::size_t caret = t.find('^');
    if (caret != std::string::npos) {
        const auto base = parseSize(t.substr(0, caret));
        const auto exponent = parseSize(t.substr(caret + 1));
        if (!base || !exponent || *exponent >= 64)
            return std::nullopt;
        std::uint64_t result = 1;
        for (std::uint64_t i = 0; i < *exponent; ++i) {
            if (*base != 0 && result > kMax / *base)
                return std::nullopt;
            result *= *base;
        }
        return result;
    }

    std::uint64_t value = 0;
    for (char c : t) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (kMax - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

std::string
join(const std::vector<std::string> &items, const std::string &separator)
{
    std::string result;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            result += separator;
        result += items[i];
    }
    return result;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string result;
    if (needed > 0) {
        result.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(result.data(),
                       static_cast<std::size_t>(needed) + 1, fmt,
                       args_copy);
    }
    va_end(args_copy);
    return result;
}

} // namespace tlat
