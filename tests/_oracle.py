"""Independent brute-force re-enactment of a session under constant
bandwidth, for checking the engine's event timeline.

Written as a single flat chronological loop with its own state bookkeeping;
it shares only the strategy decision functions and the domain types with
the engine. Its first download, made before any throughput sample exists,
is its own and calls no strategy. Also holds the per-video cost and waste
in megabits, the independent check of the engine's kilobit sums.
"""
import math

from swipesim.core import chunk_kbit
from swipesim.metrics import total_kilobits
from swipesim.retention import derive_thresholds, swipe_cdf
from swipesim.strategy import Download, PlayerView, Sleep, StrategyContext

EVENT_ORDER = {"dl_start": 0, "dl_done": 1, "play": 2, "swipe": 3,
               "sleep": 4, "end": 5}


def canonical(events):
    """Order-normalize a timeline for comparison."""
    return sorted(events, key=lambda ev: (ev[1], EVENT_ORDER[ev[0]], ev[2:]))


def brute_force_session(script, bandwidth_kbps, strategy, config, model):
    """Replay one session chronologically; returns (events, rebuffer map,
    downloaded bitrates per video, end time)."""
    videos = script.videos
    n = len(videos)
    profiles = [(derive_thresholds(model, v.chunk_count, config.p_th_early,
                                   config.p_th_long),
                 swipe_cdf(model, v.chunk_count)) for v in videos]
    downloaded = [[] for _ in range(n)]
    rebuffer = {}
    events = []
    played = set()

    t = 0.0
    cur = 0
    started = False
    play_chunk = 1
    chunk_begin = 0.0
    samples = []
    r_last = None
    total_rebuf = 0.0
    marker = 0.0
    done = False
    end_t = None
    in_flight = None

    def mark_play():
        if (cur, play_chunk) not in played:
            played.add((cur, play_chunk))
            events.append(("play", t, cur, play_chunk))

    def playhead():
        """Unplayed chunks of the current video, and the same less the
        played fraction of the chunk on screen."""
        ndl = len(downloaded[cur])
        if not started:
            return ndl, float(ndl)
        buff = ndl - (play_chunk - 1)
        offset = 0.0
        if play_chunk <= ndl:
            offset = (t - chunk_begin) / videos[cur].chunk_duration_s
        return buff, buff - offset

    def build_ctx():
        views = []
        hi = min(cur + config.n_pred, n)
        for i in range(cur, hi):
            ndl = len(downloaded[i])
            th, cdf = profiles[i]
            views.append(PlayerView(spec=videos[i], video_index=i,
                                    downloaded=ndl, thresholds=th,
                                    swipe_cdf=cdf,
                                    last_bitrate=downloaded[i][-1] if ndl else None))
        lad0 = views[0].spec.ladder
        lad1 = views[1].spec.ladder if len(views) > 1 else lad0
        c_min = lad0.lowest + config.b0_startup_chunks * lad1.lowest
        win = samples[-config.window_chunks:]
        c_ave = sum(win) / len(win)
        c_pred = config.alpha1 * c_ave + config.alpha2 * samples[-1]
        buff, lead = playhead()
        return StrategyContext(players=views, buffered=buff, lead=lead,
                               c_pred=c_pred, c_ave=c_ave,
                               c_min=c_min, r_last=r_last,
                               rebuffer_flag=total_rebuf > marker,
                               config=config)

    while not done:
        if in_flight is None:
            if samples:
                action = strategy.decide(build_ctx())
            else:
                # nothing to estimate from yet: video 0's first chunk comes
                # at its lowest rung
                action = Download(0, videos[0].ladder.lowest, threshold=1)
            marker = total_rebuf
            if isinstance(action, Download):
                vi, rate = action.video_index, action.bitrate_kbps
                # the next chunk of the player, from the oracle's own count
                k = len(downloaded[vi]) + 1
                size = chunk_kbit(rate, videos[vi].chunk_duration_s)
                finish = t + size / bandwidth_kbps
                # the depth the download was issued at: unplayed chunks on
                # screen, every downloaded chunk of a recommended video
                buff = playhead()[0] if vi == cur else len(downloaded[vi])
                events.append(("dl_start", t, vi, k, rate, buff,
                               action.threshold))
                in_flight = (vi, k, rate, size, t, finish)
                target = finish
            else:
                assert isinstance(action, Sleep)
                wake = t + config.t_sleep_s
                if started and play_chunk <= len(downloaded[cur]):
                    boundary = chunk_begin + videos[cur].chunk_duration_s
                    if boundary < wake:
                        wake = boundary
                events.append(("sleep", t, wake))
                target = wake
        else:
            target = in_flight[5]

        # play forward to the target instant
        while t < target and not done:
            spec = videos[cur]
            ndl = len(downloaded[cur])
            if not started:
                if ndl >= min(config.b0_startup_chunks, spec.chunk_count):
                    started = True
                    play_chunk = 1
                    chunk_begin = t
                    mark_play()
                    continue
                if cur > 0:
                    rebuffer[(cur, 1)] = rebuffer.get((cur, 1), 0.0) + (target - t)
                    total_rebuf += target - t
                t = target
            elif play_chunk > ndl:
                rebuffer[(cur, play_chunk)] = (rebuffer.get((cur, play_chunk), 0.0)
                                               + (target - t))
                total_rebuf += target - t
                t = target
            else:
                boundary = chunk_begin + spec.chunk_duration_s
                if boundary > target:
                    t = target
                else:
                    t = boundary
                    if play_chunk == script.swipe_points[cur]:
                        events.append(("swipe", t, cur))
                        cur += 1
                        if cur >= n:
                            done = True
                            end_t = t
                            events.append(("end", t))
                        else:
                            started = False
                            play_chunk = 1
                    else:
                        play_chunk += 1
                        chunk_begin = t
                        if play_chunk <= ndl:
                            mark_play()
        if done:
            break

        if in_flight is not None and t == in_flight[5]:
            vi, k, rate, size, t0, finish = in_flight
            downloaded[vi].append(rate)
            samples.append(size / (finish - t0))
            r_last = rate
            events.append(("dl_done", t, vi, k))
            if started and vi == cur and k == play_chunk:
                chunk_begin = t
                mark_play()
            in_flight = None

    return events, rebuffer, downloaded, end_t


def cost_video(downloaded_bitrates, t0_s) -> float:
    """Bandwidth consumed by every downloaded chunk, in megabits."""
    if t0_s <= 0:
        raise ValueError("chunk duration must be positive")
    return total_kilobits(downloaded_bitrates, t0_s) / 1000.0


def waste_video(downloaded_bitrates, watched_count: int, t0_s) -> float:
    """Megabits downloaded beyond the last watched chunk."""
    if watched_count > len(downloaded_bitrates):
        raise ValueError("watched_count exceeds downloaded chunk count")
    return total_kilobits(downloaded_bitrates[watched_count:], t0_s) / 1000.0
