/**
 * @file
 * String-keyed, self-registering factory for translation schemes.
 *
 * Every scheme the simulator knows — the paper's four (Baseline,
 * POM-TLB, Shared_L2, TSB) and any later contender — registers itself
 * here at static-initialisation time via POMTLB_REGISTER_SCHEME. The
 * Machine, the sweep/experiment layer, and the CLI all resolve scheme
 * names through this registry, so adding a design means adding one
 * translation-unit, not editing seven files.
 *
 * Ordering is deterministic: each registration carries an explicit
 * rank, and iteration is sorted by (rank, name) — never by map order
 * or by the (unspecified) cross-TU static-initialisation order. The
 * paper's four schemes hold ranks 0–3 so Figure-8 ordering is
 * preserved; new schemes append with higher ranks.
 */

#ifndef POMTLB_SIM_SCHEME_REGISTRY_HH
#define POMTLB_SIM_SCHEME_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheme.hh"

namespace pomtlb
{

struct SystemConfig;
class Machine;

/** The global name → factory table for translation schemes. */
class SchemeRegistry
{
  public:
    /**
     * Builds one scheme instance wired into @p machine. The machine
     * is fully constructed up to (and including) its page walkers and
     * data hierarchy when the factory runs; MMUs are built afterwards
     * around the returned scheme.
     */
    using Factory = std::function<std::unique_ptr<TranslationScheme>(
        const SystemConfig &, Machine &)>;

    /** One registered scheme. */
    struct Info
    {
        /**
         * Canonical name: what reports, JSON documents
         * (`pomtlb-sweep-v1` / `pomtlb-stats-v1`) and the CLI emit.
         */
        std::string name;
        /** One-line description for `pomtlb list-schemes`. */
        std::string description;
        /** Extra accepted spellings (CLI/sweep parsing only). */
        std::vector<std::string> aliases;
        /**
         * Listing rank; iteration order is (rank, name). The paper's
         * schemes use 0–3 (Figure 8 order); contenders use higher
         * ranks so they append after the originals.
         */
        int rank = 0;
        /** Scheme constructor. */
        Factory factory;
    };

    /** The process-wide registry every scheme registers into. */
    static SchemeRegistry &global();

    /**
     * Register a scheme. Throws std::invalid_argument when the name
     * or any alias collides with an already-registered name or alias.
     */
    void add(Info info);

    /**
     * Look up a scheme by canonical name or alias; null when the
     * name is unknown.
     */
    const Info *find(const std::string &name_or_alias) const;

    /** Every canonical name, in deterministic (rank, name) order. */
    std::vector<std::string> names() const;

    /** Every registration, in deterministic (rank, name) order. */
    std::vector<const Info *> entries() const;

  private:
    std::vector<Info> schemes;
};

/**
 * Registers one scheme into SchemeRegistry::global() during static
 * initialisation — declare one (via POMTLB_REGISTER_SCHEME) at
 * namespace scope in the scheme's translation unit.
 */
class SchemeRegistrar
{
  public:
    /** Registers @p info with the global registry. */
    explicit SchemeRegistrar(SchemeRegistry::Info info);
};

/**
 * Self-registration hook: expands to a static SchemeRegistrar named
 * @p tag initialised from a braced SchemeRegistry::Info. Place one in
 * the scheme's .cc file:
 *
 * @code
 * POMTLB_REGISTER_SCHEME(registerMyScheme, {
 *     .name = "MyScheme",
 *     .description = "one-line summary",
 *     .aliases = {"my-scheme"},
 *     .rank = 6,
 *     .factory = [](const SystemConfig &config, Machine &machine)
 *         -> std::unique_ptr<TranslationScheme> { ... },
 * });
 * @endcode
 */
#define POMTLB_REGISTER_SCHEME(tag, ...)                              \
    static const ::pomtlb::SchemeRegistrar tag(                       \
        ::pomtlb::SchemeRegistry::Info __VA_ARGS__)

} // namespace pomtlb

#endif // POMTLB_SIM_SCHEME_REGISTRY_HH
