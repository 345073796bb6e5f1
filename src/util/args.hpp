/**
 * @file
 * Minimal command-line flag parser for the CLI tools. Supports
 * `--flag value`, `--flag=value` and boolean `--flag` forms, typed
 * accessors with defaults, and generated `--help` text. Typed values
 * go through util/strings.hpp's strict parsers once, in parse(), so a
 * bad number is a usage error before any work starts.
 */

#ifndef FASTCAP_UTIL_ARGS_HPP
#define FASTCAP_UTIL_ARGS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fastcap {

/**
 * Declarative flag set.
 *
 * Usage:
 *   ArgParser args("fastcap_sim", "run a capping experiment");
 *   args.addString("workload", "MIX3", "Table III workload name");
 *   args.addDouble("budget", 0.6, "budget fraction of peak");
 *   args.addFlag("trace", "print per-epoch rows");
 *   if (!args.parse(argc, argv)) return 1;   // --help or error
 *   double b = args.getDouble("budget");
 */
class ArgParser
{
  public:
    ArgParser(std::string program, std::string description);

    /** Declare a string-valued option. */
    void addString(const std::string &name, std::string def,
                   std::string help);
    /** Declare a double-valued option; values must be finite. */
    void addDouble(const std::string &name, double def,
                   std::string help);
    /**
     * Declare an int-valued option. A value outside int's range is
     * rejected, so 4294967300 cannot wrap to 4.
     */
    void addInt(const std::string &name, int def, std::string help);
    /**
     * Declare a uint64-valued option for a count or seed. A `-` sign
     * is rejected, so -1 cannot wrap to 2^64 - 1.
     */
    void addUnsigned(const std::string &name, std::uint64_t def,
                     std::string help);
    /** Declare a boolean switch (false unless present). */
    void addFlag(const std::string &name, std::string help);

    /**
     * Parse argv. Returns false (after printing help or an error) if
     * execution should stop: unknown flag, bad value, or --help.
     */
    bool parse(int argc, const char *const *argv);

    const std::string &getString(const std::string &name) const;
    double getDouble(const std::string &name) const;
    int getInt(const std::string &name) const;
    std::uint64_t getUnsigned(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** True if the user supplied the option explicitly. */
    bool provided(const std::string &name) const;

    /** Render the help text. */
    std::string helpText() const;

  private:
    enum class Kind { String, Double, Int, Unsigned, Flag };

    struct Option
    {
        Kind kind;
        std::string help;
        std::string value;  //!< current (default or given) text
        bool provided = false;
        /** The parsed value of a Double, Int or Unsigned option. */
        double real = 0.0;
        int integer = 0;
        std::uint64_t count = 0;
    };

    void declare(const std::string &name, Option opt);
    const Option &find(const std::string &name, Kind kind) const;
    bool assign(const std::string &name, const std::string &value);

    std::string _program;
    std::string _description;
    std::map<std::string, Option> _options;
    std::vector<std::string> _order;
};

} // namespace fastcap

#endif // FASTCAP_UTIL_ARGS_HPP
