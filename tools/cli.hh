/**
 * @file
 * Option parsing shared by the command-line tools: `--name VALUE`
 * options, valueless flags, strict integer options, positional
 * arguments, the --threads / --faults options, and the rejection of
 * options a command never reads.
 */

#ifndef CICERO_TOOLS_CLI_HH
#define CICERO_TOOLS_CLI_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/fault.hh"
#include "common/parallel.hh"

namespace cicero::cli {

/** A tool's command line, read from argv[first] on. */
class Args
{
  public:
    /**
     * @param first     index of the first option: 1 for a plain tool,
     *                  2 after a subcommand
     * @param prog      program name prefixed to --threads/--faults
     *                  messages
     * @param valueless options that take no value; every other
     *                  argument starting with '-' consumes the next one
     */
    Args(int argc, char **argv, int first, const char *prog,
         std::initializer_list<const char *> valueless = {})
        : _argc(argc), _argv(argv), _first(first), _prog(prog),
          _valueless(valueless)
    {
    }

    /** Value of option @p name, or nullptr. */
    const char *
    optValue(const char *name) const
    {
        _asked.push_back(name);
        for (int i = _first; i + 1 < _argc; ++i)
            if (std::strcmp(_argv[i], name) == 0)
                return _argv[i + 1];
        return nullptr;
    }

    const char *
    optValueOr(const char *name, const char *fallback) const
    {
        const char *v = optValue(name);
        return v ? v : fallback;
    }

    /** True when valueless flag @p name appears. */
    bool
    optFlag(const char *name) const
    {
        _asked.push_back(name);
        for (int i = _first; i < _argc; ++i)
            if (std::strcmp(_argv[i], name) == 0)
                return true;
        return false;
    }

    /**
     * Strict numeric option: absent -> @p fallback; present -> must
     * parse as a decimal integer in [@p minV, @p maxV] (atoi-style
     * silent garbage = 0 is exactly the failure mode the memory-model
     * configs cannot tolerate: 0 banks is a division by zero, 0 rays a
     * livelock).
     */
    bool
    optUint(const char *name, std::uint32_t fallback, std::uint32_t minV,
            std::uint32_t maxV, std::uint32_t &out) const
    {
        const char *v = optValue(name);
        if (!v) {
            out = fallback;
            return true;
        }
        char *end = nullptr;
        errno = 0;
        unsigned long parsed = std::strtoul(v, &end, 10);
        if (end == v || *end != '\0' || errno == ERANGE ||
            parsed < minV || parsed > maxV) {
            std::fprintf(stderr,
                         "%s: want an integer in [%u, %u], got \"%s\"\n",
                         name, minV, maxV, v);
            return false;
        }
        out = static_cast<std::uint32_t>(parsed);
        return true;
    }

    /** The @p index-th non-option argument, or nullptr. */
    const char *
    positional(int index) const
    {
        int seen = 0;
        for (int i = _first; i < _argc; ++i) {
            if (_argv[i][0] == '-') {
                if (!listed(_valueless, _argv[i]))
                    ++i; // skip the option's value
                continue;
            }
            if (seen++ == index)
                return _argv[i];
        }
        return nullptr;
    }

    /**
     * Call once a command has read every option it takes: the first
     * argument starting with '-' that no optValue / optFlag / optUint
     * call (nor --threads / --faults) asked for is reported as an
     * unknown option and the result is false. So a misspelt or retired
     * option, or one the chosen mode does not read, is a usage error
     * rather than silently ignored.
     */
    bool
    onlyKnownOptions() const
    {
        for (int i = _first; i < _argc; ++i) {
            if (_argv[i][0] != '-')
                continue;
            if (!listed(_asked, _argv[i])) {
                std::fprintf(stderr, "%s: unknown option '%s'\n", _prog,
                             _argv[i]);
                return false;
            }
            if (!listed(_valueless, _argv[i]))
                ++i; // skip the option's value
        }
        return true;
    }

    /**
     * Apply --threads N: validated with the CICERO_THREADS parser; an
     * invalid spec warns and falls back to the automatic default
     * instead of silently running with a garbage count.
     */
    void
    applyThreadsOption() const
    {
        const char *v = optValue("--threads");
        if (!v)
            return;
        int n = parallelParseThreadSpec(v);
        if (n == 0) {
            std::fprintf(stderr,
                         "%s: ignoring invalid --threads=\"%s\" "
                         "(want an integer in [1, %d]); falling back to "
                         "the automatic default\n",
                         _prog, v, kMaxParallelThreads);
            setParallelThreadCount(0);
            return;
        }
        setParallelThreadCount(n);
    }

    /**
     * Apply --faults SPEC. Unlike the CICERO_FAULTS env (operator typo
     * -> warn and ignore), an explicit CLI spec that fails to parse is
     * a usage error: returns false.
     */
    bool
    applyFaultsOption() const
    {
        const char *v = optValue("--faults");
        if (!v)
            return true;
        try {
            faultArmSpec(v);
        } catch (const FaultSpecError &e) {
            std::fprintf(stderr, "%s: --faults: %s\n", _prog, e.what());
            return false;
        }
        return true;
    }

  private:
    static bool
    listed(const std::vector<const char *> &names, const char *name)
    {
        for (const char *n : names)
            if (std::strcmp(name, n) == 0)
                return true;
        return false;
    }

    int _argc;
    char **_argv;
    int _first;
    const char *_prog;
    std::vector<const char *> _valueless;
    mutable std::vector<const char *> _asked; //!< every name looked up
};

} // namespace cicero::cli

#endif // CICERO_TOOLS_CLI_HH
