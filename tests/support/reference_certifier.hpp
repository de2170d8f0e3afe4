// Test-only oracle for bounds::certify_segments and
// bounds::certify_segments_decode_only: the segment argument of
// Sections 5 and 6 applied literally, one std::set per segment for the
// computed set S, its meta-closure S', and every boundary set. It
// shares nothing with the production walk except the counted-vertex
// selection (the Lemma-1 family), so agreement checks the segment
// ends and both boundaries.
#pragma once

#include <span>

#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/cdag/view.hpp"

namespace pathrouting::oracle {

/// The CertifyResult the production certifier must return for the same
/// arguments (Section 5 when `decode_only`, else Section 6).
bounds::CertifyResult reference_certify(const cdag::CdagView& view,
                                        std::span<const cdag::VertexId> schedule,
                                        const bounds::CertifyParams& params,
                                        bool decode_only);

}  // namespace pathrouting::oracle
