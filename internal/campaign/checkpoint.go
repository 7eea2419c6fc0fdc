package campaign

import (
	"encoding/json"
	"errors"
	"fmt"

	"slamgo/internal/sharedfs"
)

// The checkpoint store persists one JSON file per stage artifact so a
// killed campaign restarts from completed cells instead of from
// scratch. Artifact names embed a content hash of everything that
// determines the artifact's bytes (cell spec, derived seed, the
// relevant exploration options — see runner.artifactName), so a
// changed option simply misses the stale file and re-runs the work; a
// version field in the envelope invalidates artifacts across format
// changes the same way.
//
// The store is the JSON-envelope codec over the one content-addressed
// store of internal/sharedfs (shared with seqcache and evalstore):
// writes are atomic, every data defect — absent file, version or name
// mismatch, truncated or corrupt JSON — is a miss rather than an error
// (re-running a stage is always safe while trusting a damaged artifact
// never is), and transient I/O faults ride the bounded retry ladder.
// A real I/O fault that survives it is reported as an error, so the
// campaign stops instead of silently re-simulating over a store it
// cannot read. In cooperative worker mode the same store's lease
// ladder (sharedfs.Store.Once) distributes the cells.

// storeVersion is the checkpoint format version; bumping it orphans
// every existing artifact (they are treated as misses, never misread).
const storeVersion = 1

// Store is a directory of versioned campaign stage artifacts, one flat
// "<name>.json" file each.
type Store struct {
	fs *sharedfs.Store[json.RawMessage]
}

// OpenStore opens (creating if needed) a checkpoint directory and
// garbage-collects the debris SIGKILLed processes leave behind: stale
// ".tmp-*" files from writes that never reached their rename and
// orphaned ".lease" files whose holder died (both judged against
// sharedfs.DefaultDebrisAge, conservatively old so live writers and
// heartbeating holders are never mistaken for litter). Valid artifacts
// are never touched.
func OpenStore(dir string) (*Store, error) {
	return openStore(sharedfs.Config{Dir: dir})
}

// openStore opens the checkpoint store with the runner's lease, log and
// clock plumbing (cfg.Worker empty: no leases).
func openStore(cfg sharedfs.Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("campaign: empty checkpoint directory")
	}
	cfg.Label, cfg.Ext = "campaign", ".json"
	fs, err := sharedfs.Open[json.RawMessage](cfg, envelopeCodec{})
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint directory: %w", err)
	}
	return &Store{fs: fs}, nil
}

// envelope wraps every artifact with its format version and its own
// name, so a file copied or renamed to the wrong key cannot be loaded
// as something it is not.
type envelope struct {
	Version int             `json:"version"`
	Name    string          `json:"name"`
	Payload json.RawMessage `json:"payload"`
}

// envelopeCodec is the checkpoint format as a sharedfs codec over the
// artifacts' JSON payloads.
type envelopeCodec struct{}

func (envelopeCodec) Encode(name string, payload json.RawMessage) ([]byte, error) {
	return json.Marshal(envelope{Version: storeVersion, Name: name, Payload: payload})
}

func (envelopeCodec) Decode(data []byte) (string, json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return "", nil, err
	}
	if env.Version != storeVersion {
		return "", nil, fmt.Errorf("checkpoint version %d, want %d", env.Version, storeVersion)
	}
	return env.Name, env.Payload, nil
}

// Save atomically persists payload under name, replacing any previous
// artifact of that name: concurrent writers — other goroutines or
// other processes sharing the directory — cannot clobber each other's
// half-written bytes, and whichever rename lands last wins whole.
func (s *Store) Save(name string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("campaign: encoding artifact %s: %w", name, err)
	}
	return s.fs.Save(name, raw)
}

// Load reads the artifact saved under name into out. The boolean
// reports a hit; (false, nil) is a miss (no such file, version or name
// mismatch, corrupt contents) that re-running the stage repairs, while
// a non-nil error is a real I/O fault that survived the retry ladder:
// the work is not lost, the store is unreachable, so callers should
// stop rather than re-simulate.
func (s *Store) Load(name string, out any) (bool, error) {
	raw, ok, err := s.fs.Load(name)
	if !ok || err != nil {
		return false, err
	}
	return json.Unmarshal(raw, out) == nil, nil
}
