#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/units.h"

namespace sn40l::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
    separators_.push_back(false);
}

void
Table::addSeparator()
{
    rows_.emplace_back();
    separators_.push_back(true);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            std::string cell = c < row.size() ? row[c] : "";
            os << "| " << std::left << std::setw(static_cast<int>(widths[c]))
               << cell << " ";
        }
        os << "|\n";
    };

    auto print_sep = [&]() {
        for (std::size_t c = 0; c < widths.size(); ++c)
            os << "|" << std::string(widths[c] + 2, '-');
        os << "|\n";
    };

    print_row(header_);
    print_sep();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (separators_[r])
            print_sep();
        else
            print_row(rows_[r]);
    }
}

std::string
formatDouble(double value, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << value;
    return os.str();
}

std::string
formatGeneral(double value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

std::string
formatBytes(double bytes)
{
    const char *units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
    int u = 0;
    double v = bytes;
    while (std::abs(v) >= 1000.0 && u < 5) {
        v /= 1000.0;
        ++u;
    }
    return formatDouble(v, 2) + " " + units[u];
}

std::string
formatBandwidth(double bytes_per_sec)
{
    return formatBytes(bytes_per_sec) + "/s";
}

std::string
formatSeconds(double seconds)
{
    double v = seconds;
    if (std::abs(v) >= 1.0)
        return formatDouble(v, 3) + " s";
    if (std::abs(v) >= 1e-3)
        return formatDouble(v * 1e3, 3) + " ms";
    if (std::abs(v) >= 1e-6)
        return formatDouble(v * 1e6, 3) + " us";
    return formatDouble(v * 1e9, 1) + " ns";
}

} // namespace sn40l::util
