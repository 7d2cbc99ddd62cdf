/**
 * @file
 * Shared check for a binary's option table: every row parses a valid
 * value under every spelling, and every spelling is in the binary's
 * --help. driver_test runs it over pbs_sim's table, exp_test over
 * pbs_exp's.
 */

#ifndef PBS_TESTS_SUPPORT_OPTION_ROWS_HH
#define PBS_TESTS_SUPPORT_OPTION_ROWS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "util/cli.hh"

namespace pbs::testsupport {

/** Whether @p name occurs in @p text as a whole flag token. */
inline bool
mentionsFlag(const std::string &text, const std::string &name)
{
    auto flagChar = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '-';
    };
    for (size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        const size_t end = at + name.size();
        if ((at == 0 || !flagChar(text[at - 1])) &&
            (end == text.size() || !flagChar(text[end])))
            return true;
    }
    return false;
}

/**
 * Parse each row of @p rows alone, under each spelling, as "--k v" and
 * as "--k=v", and find each spelling in @p usage. String-valued rows
 * take their value from @p strings, keyed by canonical spelling; a
 * row missing there fails, so a new flag must bring a test value.
 * Number rows take their floor (at least 1), fractions a value inside
 * their range.
 */
inline void
expectEveryRowParses(const std::vector<util::Option> &rows,
                     const std::string &usage,
                     const std::map<std::string, std::string> &strings)
{
    for (const util::Option &row : rows) {
        if (row.names.empty())
            continue;  // a section heading
        const bool isSwitch = std::holds_alternative<bool *>(row.target);
        std::string value;
        if (std::holds_alternative<std::string *>(row.target)) {
            const auto it = strings.find(row.names.front());
            ASSERT_NE(it, strings.end())
                << "no test value for " << row.names.front();
            value = it->second;
        } else if (std::holds_alternative<double *>(row.target)) {
            value = std::to_string(0.5 * std::min(1.0, row.hi));
        } else if (!isSwitch) {
            value = std::to_string(std::max<uint64_t>(row.min, 1));
        }
        for (const std::string &name : row.names) {
            EXPECT_TRUE(mentionsFlag(usage, name))
                << name << " is missing from --help";
            if (isSwitch) {
                EXPECT_EQ(util::parseOptions(rows, {name}), "") << name;
                continue;
            }
            EXPECT_EQ(util::parseOptions(rows, {name, value}), "")
                << name << " " << value;
            EXPECT_EQ(util::parseOptions(rows, {name + "=" + value}), "")
                << name << "=" << value;
        }
    }
}

}  // namespace pbs::testsupport

#endif  // PBS_TESTS_SUPPORT_OPTION_ROWS_HH
