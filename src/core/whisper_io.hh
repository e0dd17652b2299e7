/**
 * @file
 * Binary (de)serialization for Whisper's offline artifacts.
 *
 * Two artifact kinds cross process boundaries in a deployment
 * pipeline (paper Fig. 10): the collected profile (steps 1-2) and
 * the trained hint bundle (step 3, the inputs to binary rewriting).
 * Each file is magic, version, body, written with util/byte_codec;
 * a load rejects any byte the body does not account for.
 *
 * Load paths return IoStatus instead of bool so callers can tell a
 * missing file (regenerate it) from a corrupt one (raise an
 * incident). A versioned bundle's body is also the payload of a
 * journal record and of a wire BUNDLE frame.
 */

#ifndef WHISPER_CORE_WHISPER_IO_HH
#define WHISPER_CORE_WHISPER_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/hint_injection.hh"
#include "core/profile.hh"
#include "core/whisper_trainer.hh"
#include "util/io_status.hh"

namespace whisper
{

/** Trained hints plus their placements: one deployable bundle. */
struct HintBundle
{
    std::vector<TrainedHint> hints;
    std::vector<HintPlacement> placements;

    bool operator==(const HintBundle &o) const = default;
};

/**
 * A hint bundle stamped with its deployment epoch and the validation
 * accuracy it was accepted with — what whisperd's versioned hint
 * store persists so a restarted consumer can tell which generation
 * of hints it is running.
 */
struct VersionedHintBundle
{
    uint64_t epoch = 0;
    double validationAccuracy = 0.0;
    HintBundle bundle;

    bool operator==(const VersionedHintBundle &o) const = default;
};

/** Save/load a profile. Loads report missing-vs-corrupt. */
bool saveProfile(const BranchProfile &profile,
                 const std::string &path);
IoStatus loadProfile(BranchProfile &profile, const std::string &path);

/** Save/load a hint bundle. */
bool saveHintBundle(const HintBundle &bundle,
                    const std::string &path);
IoStatus loadHintBundle(HintBundle &bundle, const std::string &path);

/** Save/load an epoch-stamped bundle (own magic; bad magic or a
 * truncated epoch header is rejected). */
bool saveVersionedBundle(const VersionedHintBundle &bundle,
                         const std::string &path);
IoStatus loadVersionedBundle(VersionedHintBundle &bundle,
                             const std::string &path);

/** Serialize a versioned bundle to bytes (journal record payload). */
std::vector<unsigned char>
encodeVersionedBundle(const VersionedHintBundle &bundle);

/** Parse bytes produced by encodeVersionedBundle. @return false on
 * any truncation or bounds violation. */
bool decodeVersionedBundle(VersionedHintBundle &bundle,
                           const unsigned char *data, size_t size);

} // namespace whisper

#endif // WHISPER_CORE_WHISPER_IO_HH
