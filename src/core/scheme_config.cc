#include "scheme_config.hh"

#include "util/bitops.hh"
#include "util/string_utils.hh"

namespace tlat::core
{

namespace
{

/** Extracts "Head(inner)" -> (Head, inner); nullopt if no parens. */
std::optional<std::pair<std::string, std::string>>
splitCall(const std::string &text)
{
    const std::size_t open = text.find('(');
    if (open == std::string::npos || text.back() != ')')
        return std::nullopt;
    return std::make_pair(trim(text.substr(0, open)),
                          text.substr(open + 1,
                                      text.size() - open - 2));
}

std::optional<TableKind>
tableKindFromName(const std::string &name)
{
    if (name == "IHRT")
        return TableKind::Ideal;
    if (name == "AHRT")
        return TableKind::Associative;
    if (name == "HHRT")
        return TableKind::Hashed;
    return std::nullopt;
}

/** Largest AHRT/HHRT entry count the grammar accepts. */
constexpr std::uint64_t kMaxTableEntries = std::uint64_t{1} << 24;

/**
 * The geometry rules of the finite history tables, checked here so
 * every constructor precondition is a parse error, not an abort: an
 * AHRT splits its entries evenly into a power-of-two number of
 * @p ways-way sets, and an HHRT has a power-of-two entry count.
 */
bool
validTableGeometry(TableKind kind, std::uint64_t entries, unsigned ways)
{
    if (entries == 0 || entries > kMaxTableEntries)
        return false;
    if (kind == TableKind::Hashed)
        return isPowerOfTwo(entries);
    return entries % ways == 0 && isPowerOfTwo(entries / ways);
}

/** Parses "12SR" -> 12. */
std::optional<unsigned>
parseShiftRegister(const std::string &text)
{
    if (!endsWith(text, "SR"))
        return std::nullopt;
    const auto bits = parseSize(text.substr(0, text.size() - 2));
    if (!bits || *bits == 0 || *bits > 24)
        return std::nullopt;
    return static_cast<unsigned>(*bits);
}

/** Parses the History(Size,Content) clause shared by AT/ST/LS. */
bool
parseHistoryClause(const std::string &clause, SchemeConfig &config,
                   bool entry_is_automaton)
{
    const auto call = splitCall(clause);
    if (!call)
        return false;
    const auto kind = tableKindFromName(call->first);
    if (!kind)
        return false;
    config.hrtKind = *kind;

    const auto fields = splitTopLevel(call->second, ',');
    if (fields.size() != 2)
        return false;

    const std::string size_text = trim(fields[0]);
    if (config.hrtKind == TableKind::Ideal) {
        // Table 2 writes IHRT(,12SR): the size slot is empty (or the
        // infinity glyph, which we accept as "inf").
        if (!size_text.empty() && size_text != "inf")
            return false;
        config.hrtEntries = 0;
    } else {
        const auto entries = parseSize(size_text);
        if (!entries || !validTableGeometry(config.hrtKind, *entries,
                                            config.associativity))
            return false;
        config.hrtEntries = *entries;
    }

    const std::string content = trim(fields[1]);
    if (entry_is_automaton) {
        const auto automaton = automatonFromName(content);
        if (!automaton)
            return false;
        config.automaton = *automaton;
    } else {
        const auto bits = parseShiftRegister(content);
        if (!bits)
            return false;
        config.historyBits = *bits;
    }
    return true;
}

/** Parses the Pattern(Size,Content) clause for AT/ST. */
bool
parsePatternClause(const std::string &clause, SchemeConfig &config,
                   bool preset_bits)
{
    const auto call = splitCall(clause);
    if (!call || call->first != "PT")
        return false;
    const auto fields = splitTopLevel(call->second, ',');
    if (fields.size() != 2)
        return false;

    const auto entries = parseSize(trim(fields[0]));
    if (!entries || *entries != (std::uint64_t{1} << config.historyBits))
        return false; // PT size must be 2^historyBits

    const std::string content = trim(fields[1]);
    if (preset_bits)
        return content == "PB";
    const auto automaton = automatonFromName(content);
    if (!automaton)
        return false;
    config.automaton = *automaton;
    return true;
}

} // namespace

std::string
SchemeConfig::text() const
{
    const auto history_clause = [this](const std::string &content) {
        if (hrtKind == TableKind::Ideal)
            return format("IHRT(,%s)", content.c_str());
        return format("%s(%zu,%s)", tableKindName(hrtKind), hrtEntries,
                      content.c_str());
    };

    switch (scheme) {
      case Scheme::TwoLevelAdaptive:
        return format(
            "AT(%s,PT(2^%u,%s),)",
            history_clause(format("%uSR", historyBits)).c_str(),
            historyBits, automatonName(automaton));
      case Scheme::StaticTraining:
        return format(
            "ST(%s,PT(2^%u,PB),%s)",
            history_clause(format("%uSR", historyBits)).c_str(),
            historyBits, data == DataMode::Diff ? "Diff" : "Same");
      case Scheme::LeeSmithBtb:
        return format("LS(%s,,)",
                      history_clause(automatonName(automaton)).c_str());
      case Scheme::AlwaysTaken:
        return "AlwaysTaken";
      case Scheme::AlwaysNotTaken:
        return "AlwaysNotTaken";
      case Scheme::Btfn:
        return "BTFN";
      case Scheme::Profile:
        return "Profile";
      case Scheme::Gshare:
        return format("GSH(%u,%s)", historyBits,
                      automatonName(automaton));
      case Scheme::Combining:
        return "CMB(" + components[0].text() + "," +
               components[1].text() +
               format(",CT(2^%u))", chooserBits);
    }
    return "?";
}

std::optional<SchemeConfig>
SchemeConfig::parse(const std::string &name)
{
    const std::string text = trim(name);

    SchemeConfig config;
    if (text == "AlwaysTaken") {
        config.scheme = Scheme::AlwaysTaken;
        return config;
    }
    if (text == "AlwaysNotTaken") {
        config.scheme = Scheme::AlwaysNotTaken;
        return config;
    }
    if (text == "BTFN") {
        config.scheme = Scheme::Btfn;
        return config;
    }
    if (text == "Profile") {
        config.scheme = Scheme::Profile;
        config.data = DataMode::Same;
        return config;
    }

    const auto call = splitCall(text);
    if (!call)
        return std::nullopt;
    const auto clauses = splitTopLevel(call->second, ',');

    // GSH(12,A2) has two fields, not the three-clause Table 2 shape.
    if (call->first == "GSH") {
        if (clauses.size() != 2)
            return std::nullopt;
        const auto bits = parseSize(trim(clauses[0]));
        if (!bits || *bits == 0 || *bits > 24)
            return std::nullopt;
        const auto automaton = automatonFromName(trim(clauses[1]));
        if (!automaton)
            return std::nullopt;
        config.scheme = Scheme::Gshare;
        config.historyBits = static_cast<unsigned>(*bits);
        config.automaton = *automaton;
        return config;
    }

    if (clauses.size() != 3)
        return std::nullopt;
    const std::string history = trim(clauses[0]);
    const std::string pattern = trim(clauses[1]);
    const std::string data = trim(clauses[2]);

    if (call->first == "AT") {
        config.scheme = Scheme::TwoLevelAdaptive;
        config.data = DataMode::None;
        if (!data.empty())
            return std::nullopt;
        if (!parseHistoryClause(history, config, false))
            return std::nullopt;
        if (!parsePatternClause(pattern, config, false))
            return std::nullopt;
        return config;
    }
    if (call->first == "ST") {
        config.scheme = Scheme::StaticTraining;
        if (data == "Same")
            config.data = DataMode::Same;
        else if (data == "Diff")
            config.data = DataMode::Diff;
        else
            return std::nullopt;
        if (!parseHistoryClause(history, config, false))
            return std::nullopt;
        if (!parsePatternClause(pattern, config, true))
            return std::nullopt;
        return config;
    }
    if (call->first == "LS") {
        config.scheme = Scheme::LeeSmithBtb;
        config.data = DataMode::None;
        if (!pattern.empty() || !data.empty())
            return std::nullopt;
        if (!parseHistoryClause(history, config, true))
            return std::nullopt;
        return config;
    }
    if (call->first == "CMB") {
        // CMB(A,B,CT(2^k)): the first two clauses are full scheme
        // names in their own right (splitTopLevel is depth-aware, so
        // their internal commas stay put), recursively parsed.
        const auto component_a = parse(history);
        const auto component_b = parse(pattern);
        if (!component_a || !component_b)
            return std::nullopt;
        const auto chooser = splitCall(data);
        if (!chooser || chooser->first != "CT")
            return std::nullopt;
        const auto entries = parseSize(trim(chooser->second));
        if (!entries || !isPowerOfTwo(*entries) || *entries < 2 ||
            *entries > (std::uint64_t{1} << 24))
            return std::nullopt;
        config.scheme = Scheme::Combining;
        config.components = {*component_a, *component_b};
        config.chooserBits = floorLog2(*entries);
        return config;
    }
    return std::nullopt;
}

} // namespace tlat::core
