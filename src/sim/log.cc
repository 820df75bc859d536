#include "sim/log.h"

#include <iostream>

namespace sn40l::sim {

namespace {

LogLevel g_level = LogLevel::Quiet;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Info:  return "INFO";
      case LogLevel::Warn:  return "WARN";
      case LogLevel::Quiet: return "QUIET";
    }
    return "?";
}

} // namespace

void
panic(const std::string &msg)
{
    throw SimPanic("panic: " + msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

void
requireValue(bool ok, std::string_view name, double value,
             std::string_view rule)
{
    if (ok)
        return;
    std::ostringstream os;
    os << name << " " << value << " " << rule;
    fatal(os.str());
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
logMessage(LogLevel level, const std::string &component,
           const std::string &msg)
{
    if (level < g_level || g_level == LogLevel::Quiet)
        return;
    std::cerr << "[" << levelName(level) << "] " << component << ": "
              << msg << "\n";
}

} // namespace sn40l::sim
