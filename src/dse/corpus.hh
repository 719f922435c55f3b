/**
 * @file
 * Trace corpus: a directory of `.ctrace` captures described by a
 * `corpus.json` manifest, keyed scene x encoding x resolution. The
 * corpus is the unit of input to the DSE driver — one sweep prices
 * every configuration against every trace in the corpus — and the
 * manifest carries enough capture metadata (scene, model kind, preset,
 * resolution, frame index) to re-render any entry live and check the
 * replay against it.
 *
 * Manifest format:
 * @code
 * {
 *   "version": 1,
 *   "entries": [
 *     {"id": "lego_dvgo_48_f0", "file": "lego_dvgo_48_f0.ctrace",
 *      "scene": "lego", "model": "dvgo", "encoding": "dense-grid",
 *      "res": 48, "frame": 0, "preset": "fast", "fp16": false}
 *   ]
 * }
 * @endcode
 */

#ifndef CICERO_DSE_CORPUS_HH
#define CICERO_DSE_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cicero::dse {

/** One captured trace in a corpus. */
struct CorpusEntry
{
    std::string id;       //!< unique key, e.g. "lego_dvgo_48_f0"
    std::string file;     //!< trace filename, relative to the corpus dir
    std::string scene;    //!< scene name ("lego", "chair", ...)
    std::string model;    //!< model kind name ("dvgo", "ngp", "tensorf")
    std::string encoding; //!< encoding name recorded at capture
    std::uint32_t res = 0;   //!< square render resolution
    std::uint32_t frame = 0; //!< orbit frame index captured
    std::string preset = "fast"; //!< model build preset
    std::string layout = "linear"; //!< grid layout ("linear"/"mvoxel")
    /**
     * Capture used an fp16 model (NerfModel::quantizeFp16: feature
     * storage and MLP weights); a live check quantizes the same way.
     */
    bool fp16 = false;
};

/**
 * A manifest-described directory of traces.
 */
class Corpus
{
  public:
    /** An empty corpus rooted at @p dir (for building then save()). */
    explicit Corpus(std::string dir);

    /**
     * Load @p dir/corpus.json.
     * @throws std::runtime_error on a missing or malformed manifest.
     */
    static Corpus load(const std::string &dir);

    /**
     * Parse a manifest text for a corpus rooted at @p dir.
     * @throws std::runtime_error on malformed JSON, a non-object root,
     *         a missing "entries" array, entries missing "id"/"file",
     *         or duplicate ids.
     */
    static Corpus fromManifestJson(const std::string &json,
                                   const std::string &dir);

    /** Append an entry. @throws std::runtime_error on a duplicate id. */
    void add(CorpusEntry entry);

    /** Write the manifest to dir()/corpus.json. */
    void save() const;

    /** Deterministic manifest serialization (fixed field order). */
    std::string manifestJson() const;

    const std::string &dir() const { return _dir; }
    const std::vector<CorpusEntry> &entries() const { return _entries; }
    bool empty() const { return _entries.empty(); }
    std::size_t size() const { return _entries.size(); }

    /** Absolute-or-relative path of an entry's trace file. */
    std::string tracePath(const CorpusEntry &entry) const;

    /** Entry by id; nullptr when absent. */
    const CorpusEntry *findEntry(const std::string &id) const;

  private:
    std::string _dir;
    std::vector<CorpusEntry> _entries;
};

} // namespace cicero::dse

#endif // CICERO_DSE_CORPUS_HH
