// Package serve implements the campaign service: a production-grade
// HTTP front-end over the staged campaign engine. It contains the
// frozen zero-allocation router, the job manager that runs campaigns
// as long-lived resumable jobs over a shared evaluation store and
// sequence cache, the SSE progress stream, graceful drain, and
// append-formatted access logging. cmd/dseserve is the binary shell
// around this package.
package serve

import (
	"net/http"
	"strings"
)

// Handler is a route endpoint. param carries the route's single path
// parameter ({id} routes) or the matched subtree remainder (/* routes),
// always as a substring of the request path — the router never
// allocates on the match path.
type Handler func(w http.ResponseWriter, r *http.Request, param string)

// route is one frozen routing table entry. Exactly one of the shapes
// applies: literal (prefix only), parameterised (prefix + one
// non-empty, slash-free segment + suffix) or subtree (prefix + rest).
type route struct {
	method  string
	prefix  string
	suffix  string
	param   bool
	subtree bool
	h       Handler
}

// Router is a frozen linear-scan request router. Routes are registered
// at construction (Handle panics on malformed patterns — routing is
// program structure, not input) and matching is allocation-free: the
// table is scanned in registration order and parameters are returned
// as substrings of the request path. The table is small enough that a
// linear scan beats any tree once branch prediction warms up.
type Router struct {
	routes []route
}

// Handle registers a route. Patterns are a literal path ("/healthz"),
// a path with exactly one "{param}" segment ("/campaigns/{id}/report"),
// or a subtree prefix ending in "/*" ("/debug/pprof/*").
func (rt *Router) Handle(method, pattern string, h Handler) {
	if method == "" || pattern == "" || pattern[0] != '/' || h == nil {
		panic("serve: malformed route registration")
	}
	if rest, ok := strings.CutSuffix(pattern, "/*"); ok {
		if strings.Contains(rest, "{") {
			panic("serve: subtree route cannot also carry a parameter: " + pattern)
		}
		rt.routes = append(rt.routes, route{method: method, prefix: rest + "/", subtree: true, h: h})
		return
	}
	open := strings.IndexByte(pattern, '{')
	if open < 0 {
		rt.routes = append(rt.routes, route{method: method, prefix: pattern, h: h})
		return
	}
	closing := strings.IndexByte(pattern, '}')
	if closing < open || strings.IndexByte(pattern[closing:], '{') >= 0 {
		panic("serve: route pattern needs exactly one {param}: " + pattern)
	}
	rt.routes = append(rt.routes, route{
		method: method,
		prefix: pattern[:open],
		suffix: pattern[closing+1:],
		param:  true,
		h:      h,
	})
}

// match resolves a request to its handler and path parameter. The
// status is http.StatusOK on a match, StatusMethodNotAllowed when the
// path exists under a different method, StatusNotFound otherwise.
func (rt *Router) match(method, path string) (Handler, string, int) {
	status := http.StatusNotFound
	for i := range rt.routes {
		r := &rt.routes[i]
		var p string
		switch {
		case r.subtree:
			if !strings.HasPrefix(path, r.prefix) {
				continue
			}
			p = path[len(r.prefix):]
		case r.param:
			if len(path) <= len(r.prefix)+len(r.suffix) ||
				path[:len(r.prefix)] != r.prefix ||
				path[len(path)-len(r.suffix):] != r.suffix {
				continue
			}
			p = path[len(r.prefix) : len(path)-len(r.suffix)]
			if strings.IndexByte(p, '/') >= 0 {
				continue
			}
		default:
			if path != r.prefix {
				continue
			}
		}
		if r.method != method {
			status = http.StatusMethodNotAllowed
			continue
		}
		return r.h, p, http.StatusOK
	}
	return nil, "", status
}
