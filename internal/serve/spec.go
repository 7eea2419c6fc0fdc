package serve

import "slamgo/internal/campaign"

// CampaignSpec is the wire form of a campaign submission: the JSON body
// of POST /campaigns decodes into a campaign.Spec, the same spec
// cmd/experiments binds to its flags. Submit normalizes and resolves it
// through the spec's own Normalize and Options, and the job ID is its
// ID, so a served report is byte-identical to the CLI's for the same
// campaign.
type CampaignSpec = campaign.Spec
