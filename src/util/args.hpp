/**
 * @file
 * Minimal command-line flag parser for the CLI tools. Supports
 * `--flag value`, `--flag=value` and boolean `--flag` forms, typed
 * accessors with defaults, and generated `--help` text.
 */

#ifndef FASTCAP_UTIL_ARGS_HPP
#define FASTCAP_UTIL_ARGS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fastcap {

/**
 * `value` narrowed to int. fatal() naming `what` when it does not
 * fit, so an out-of-range count such as 4294967300 cannot silently
 * wrap to 4.
 */
int narrowToInt(long value, const char *what);

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
    /** Declare a double-valued option. */
    void addDouble(const std::string &name, double def,
                   std::string help);
    /** Declare an integer-valued option. */
    void addInt(const std::string &name, long def, std::string help);
    /** Declare a boolean switch (false unless present). */
    void addFlag(const std::string &name, std::string help);

    /**
     * Parse argv. Returns false (after printing help or an error) if
     * execution should stop: unknown flag, bad value, or --help.
     */
    bool parse(int argc, const char *const *argv);

    const std::string &getString(const std::string &name) const;
    double getDouble(const std::string &name) const;
    long getInt(const std::string &name) const;
    /** getInt() through narrowToInt(): fatal() unless it fits. */
    int getIntNarrowed(const std::string &name) const;
    /**
     * getInt() for a count or seed: fatal() naming the flag on a
     * negative value, which a plain cast would wrap to a huge one.
     */
    std::uint64_t getUnsigned(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** True if the user supplied the option explicitly. */
    bool provided(const std::string &name) const;

    /** Render the help text. */
    std::string helpText() const;

  private:
    enum class Kind { String, Double, Int, Flag };

    struct Option
    {
        Kind kind;
        std::string help;
        std::string value;  //!< current (default or parsed) value
        bool provided = false;
    };

    const Option &find(const std::string &name, Kind kind) const;
    bool assign(const std::string &name, const std::string &value);

    std::string _program;
    std::string _description;
    std::map<std::string, Option> _options;
    std::vector<std::string> _order;
};

} // namespace fastcap

#endif // FASTCAP_UTIL_ARGS_HPP
