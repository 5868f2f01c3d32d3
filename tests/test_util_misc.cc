/**
 * @file
 * Unit tests for the remaining util pieces: table printer and CSV
 * writer, plus the saturating counter entries of core::PatternTable.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/automaton.hh"
#include "core/pattern_table.hh"
#include "util/csv_writer.hh"
#include "util/table_printer.hh"

namespace tlat
{
namespace
{

// The saturating counters predictors run: CounterOps, the policy
// of counter-entry pattern tables.

TEST(SaturatingCounter, SaturatesBothEnds)
{
    const core::CounterOps counter(2);
    std::uint8_t state = 0;
    state = counter.next(state, false);
    EXPECT_EQ(state, 0u);
    for (int i = 0; i < 10; ++i)
        state = counter.next(state, true);
    EXPECT_EQ(state, 3u);
    state = counter.next(state, true);
    EXPECT_EQ(state, 3u);
}

TEST(SaturatingCounter, InitialClampAndReset)
{
    // Counter entries start saturated high (taken-biased), and
    // reset() restores that state.
    core::PatternTable table(1, core::PatternTable::CounterEntries{2});
    EXPECT_EQ(table.state(0), 3u);
    table.update(0, false);
    EXPECT_EQ(table.state(0), 2u);
    table.reset();
    EXPECT_EQ(table.state(0), 3u);
}

TEST(SaturatingCounter, UpperHalf)
{
    const core::CounterOps counter(2);
    EXPECT_FALSE(counter.predict(0));
    EXPECT_FALSE(counter.predict(1));
    EXPECT_TRUE(counter.predict(2));
    EXPECT_TRUE(counter.predict(3));
}

TEST(SaturatingCounter, WiderCounter)
{
    const core::CounterOps counter(4);
    EXPECT_EQ(counter.numStates(), 16u);
    EXPECT_EQ(counter.next(15, true), 15u);
    EXPECT_FALSE(counter.predict(7));
    EXPECT_TRUE(counter.predict(8));
}

TEST(TablePrinter, RendersAlignedTable)
{
    TablePrinter printer("t");
    printer.setHeader({"name", "value"});
    printer.addRow({"a", "1"});
    printer.addSeparator();
    printer.addRow({"long-name", "22"});
    std::ostringstream oss;
    printer.print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("t\n=\n"), std::string::npos);
    EXPECT_NE(text.find("| name"), std::string::npos);
    EXPECT_NE(text.find("| long-name | 22"), std::string::npos);
}

TEST(TablePrinter, PercentCell)
{
    EXPECT_EQ(TablePrinter::percentCell(97.0), " 97.00");
    EXPECT_EQ(TablePrinter::percentCell(3.126), "  3.13");
    EXPECT_EQ(TablePrinter::percentCell(100.0), "100.00");
}

TEST(CsvWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesRows)
{
    std::ostringstream oss;
    CsvWriter csv(oss);
    csv.writeRow({"a", "b,c"});
    csv.writeRow({"1", "2"});
    EXPECT_EQ(oss.str(), "a,\"b,c\"\n1,2\n");
}

} // namespace
} // namespace tlat
