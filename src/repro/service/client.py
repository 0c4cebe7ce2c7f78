"""HTTP client for the run farm (stdlib ``urllib`` only).

:class:`FarmClient` mirrors the in-process :class:`~repro.service.farm.RunFarm`
job API over the :mod:`repro.service.http` endpoints — same verbs, same
return shapes, with specs encoded to ``run_spec`` documents on the way
out and ``run_stats`` / ``run_failure`` documents decoded back into
:class:`~repro.engine.RunStats` / :class:`~repro.harness.RunFailure` on
the way in.  Server-side errors surface as :class:`FarmError` carrying
the HTTP status and the server's message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Union

from ..engine import RunStats
from ..harness.parallel import RunFailure, RunSpec
from ..params import SimParams

__all__ = ["FarmClient", "FarmError"]

DEFAULT_URL = "http://127.0.0.1:8642"


class FarmError(RuntimeError):
    """A farm request the server rejected (carries the HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message

    def __reduce__(self):
        return type(self), (self.status, self.message), self.__dict__


def _spec_doc(spec: Union[RunSpec, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(spec, RunSpec):
        return spec.to_doc()
    if isinstance(spec, dict):
        return spec
    raise ValueError(f"spec must be a RunSpec or a run_spec document, "
                     f"got {type(spec).__name__}")


class FarmClient:
    """Talks the farm's JSON API; one instance per base URL."""

    def __init__(self, base_url: str = DEFAULT_URL,
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------------

    def _request(self, method: str, path: str,
                 doc: Optional[Dict[str, Any]] = None,
                 ) -> "tuple[int, Dict[str, Any]]":
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                parsed = json.loads(exc.read().decode("utf-8"))
                message = parsed.get("error") or json.dumps(parsed)
            except Exception:
                message = str(exc.reason)
            raise FarmError(exc.code, message) from None

    # -- the job API ------------------------------------------------------------

    def health(self) -> bool:
        """True when the server answers its health check."""
        return bool(self._request("GET", "/api/v1/health")[1].get("ok"))

    def submit(self, spec: Union[RunSpec, Dict[str, Any]],
               priority: int = 0) -> str:
        """Enqueue one run; returns its job id."""
        _, doc = self._request("POST", "/api/v1/jobs",
                               {"spec": _spec_doc(spec),
                                "priority": priority})
        return doc["job_id"]

    def submit_batch(self, specs: Sequence[Union[RunSpec, Dict[str, Any]]],
                     priority: int = 0) -> List[str]:
        """Enqueue several runs; returns their job ids in order."""
        _, doc = self._request(
            "POST", "/api/v1/batch",
            {"specs": [_spec_doc(s) for s in specs],
             "priority": priority})
        return doc["job_ids"]

    def submit_sweep(self, app: str, values: Sequence[Any],
                     param: str = "num_processors",
                     base_params: Optional[SimParams] = None,
                     interface: str = "cni", workload: Any = None,
                     priority: int = 0) -> List[str]:
        """Enqueue a one-parameter sweep (mirrors
        :meth:`RunFarm.submit_sweep`)."""
        from ..harness.serde import encode_params, encode_workload

        body: Dict[str, Any] = {
            "app": app, "values": list(values), "param": param,
            "interface": interface, "priority": priority,
        }
        if base_params is not None:
            body["params"] = encode_params(base_params)
        if workload is not None:
            body["workload"] = encode_workload(workload)
        _, doc = self._request("POST", "/api/v1/sweep", body)
        return doc["job_ids"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's plain-data status document."""
        return self._request("GET", f"/api/v1/jobs/{job_id}")[1]

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; returns whether it was cancelled."""
        _, doc = self._request("POST", f"/api/v1/jobs/{job_id}/cancel")
        return bool(doc["cancelled"])

    def result(self, job_id: str, timeout: float = 60.0,
               poll_s: float = 0.05) -> Union[RunStats, RunFailure]:
        """Poll the result endpoint until the job resolves; decode the
        stored record.  Raises TimeoutError when ``timeout`` seconds
        pass first and :class:`FarmError` (410, raised straight out of
        the request) for jobs that ended with no record (cancelled /
        untyped executor error)."""
        deadline = time.monotonic() + timeout
        while True:
            code, doc = self._request("GET",
                                      f"/api/v1/jobs/{job_id}/result")
            if code == 200:
                record = doc["result"]
                if record.get("kind") == "run_failure":
                    return RunFailure.from_json(record)
                return RunStats.from_json(record)
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{job_id} still {doc.get('state')} "
                                   f"after {timeout}s")
            time.sleep(poll_s)

    def stats(self) -> Dict[str, Any]:
        """The farm's stats document (queue, store, ``service.*``)."""
        return self._request("GET", "/api/v1/stats")[1]
